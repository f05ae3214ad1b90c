"""novq benchmark: one closed-loop client, one process, no threads.

    python3 perfbench/run.py --workload rational_cli --seed 1 --seconds 40 --trace 0

Run from anywhere; the benchmark works in the checkout that holds it and
imports novq from that checkout's src/.  It generates the workload's inputs
from the seed, then runs the workload's fixed list of operations in passes,
one operation at a time, each through novq.cli.main or the library
in-process, until --seconds is used up (at least MIN_PASSES passes).  A
fixed reference computation runs between operations, and latencies are
reported in units of its time (see end_to_end).  Every operation's output
is checked after the pass, outside the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untimed
counting pass, then each operation once untraced and once traced, and
prints the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  `failed` counts operations whose answer is wrong and makes
`correct` false.  The inputs that still break the CLI's exit codes
(workloads.Op.known_defect) count in error_rate and known_defects_failed
instead, which fall to 0 once those defects are fixed.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")

MIN_PASSES = 4
POINTS = 5  # quantile points that stand for each operation in the percentiles
SETUP_REPEATS = 11
TAIL_LADDER = (99, 95, 90, 80, 75, 70, 60, 50)


def tail_percentile(ops_per_pass):
    """Highest percentile with at least ten points beyond it."""
    n = ops_per_pass * POINTS
    return next((p for p in TAIL_LADDER if n * (100 - p) >= 1000), 50)


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def measure_setup():
    """Median seconds for a fresh interpreter to import novq.cli."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cmd = [sys.executable, "-c", "import novq.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first run writes bytecode caches
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time up to 50 ms steps
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- running and checking operations -------------------------------------------------

def run_op(novq, op):
    """(exit code or value, stdout, exception text) of one operation."""
    out, err = io.StringIO(), io.StringIO()
    result, exc = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.argv is not None:
                result = novq.cli.main(list(op.argv))
            else:
                result = op.call(novq)
    except SystemExit as e:  # argparse rejects its input by exiting
        result = e.code
    except Exception as e:  # recorded and reported as the operation's failure
        exc = f"{type(e).__name__}: {e}"
    return result, out.getvalue(), exc


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def describe(novq, value):
    """Canonical text of a library result, for comparison with the record."""
    if isinstance(value, tuple):
        return "\n".join(describe(novq, v) for v in value)
    if isinstance(value, novq.structures.Presentation):
        return novq.presfile.emit(value)
    return str(value)


def observed(novq, op, outcome):
    """What the record keeps of one outcome."""
    result, stdout, exc = outcome
    rec = {"raised": exc}
    if op.argv is None:
        rec["value_sha256"] = None if exc else _sha(describe(novq, result))
        return rec
    rec["exit"] = result
    if op.stdout is None:
        rec["stdout_sha256"] = _sha(stdout)
    rec["files_sha256"] = [_sha(_read(p)) if os.path.exists(p) else None for p in op.files]
    return rec


def check(novq, op, outcome, expected):
    """None when the outcome is right, else what is wrong with it."""
    result, stdout, exc = outcome
    if exc:
        return f"raised {exc}"
    if op.argv is not None:
        if result != op.exit:
            return f"exit {result}, expected {op.exit}"
        if op.stdout is not None and stdout != op.stdout:
            return "stdout differs from the expected text"
        if op.check is not None:
            msg = op.check(stdout)
            if msg:
                return msg
    if op.golden:
        want = expected.get(op.id)
        if want is None:
            return "no recorded result"
        got = observed(novq, op, outcome)
        for key, value in want.items():
            if got.get(key) != value:
                return f"{key} differs from expected.json"
    return None


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def reference():
    """Fixed pure-Python work of the kind novq does: Fraction arithmetic, tuple keys, dicts.

    It uses nothing from novq, so no change to the program changes its time;
    only the host's speed does.  It takes about 12-26 ms on a 2-vCPU VM.
    """
    acc = {}
    for i in range(1500):
        a = Fraction(i % 97 - 48, i % 89 + 1)
        b = Fraction(i % 13 + 1, 7)
        key = (i % 31, i % 7)
        acc[key] = acc.get(key, 0) + a * b - a / b
    return acc


def _timed_reference():
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def run_pass(novq, ops, refs=None):
    """Run every operation once; (wall seconds, latencies, outcomes).

    Given a list refs, the reference runs before each operation and after
    the last one, and its times are appended to refs.
    """
    lat, outcomes = [], []
    t_pass = time.perf_counter()
    for op in ops:
        gc.collect()  # each operation starts from a collected heap
        if refs is not None:
            refs.append(_timed_reference())
        t0 = time.perf_counter()
        outcome = run_op(novq, op)
        lat.append(time.perf_counter() - t0)
        outcomes.append(outcome)
    if refs is not None:
        refs.append(_timed_reference())
    return time.perf_counter() - t_pass, lat, outcomes


class Tally:
    """Checked outcomes across passes."""

    def __init__(self, novq, ops, expected):
        self.novq, self.ops, self.expected = novq, ops, expected
        self.attempted = self.wrong = self.defects = 0
        self.messages = {}

    def add(self, outcomes):
        for op, outcome in zip(self.ops, outcomes):
            self.attempted += 1
            msg = check(self.novq, op, outcome, self.expected)
            if msg is None:
                continue
            if op.known_defect:
                self.defects += 1
            else:
                self.wrong += 1
            self.messages[op.id] = msg

    @property
    def error_rate(self):
        return (self.wrong + self.defects) / self.attempted


# -- metrics -----------------------------------------------------------------------

def end_to_end(novq, ops, seconds, tally):
    """Passes until the time is used; latencies in units of the reference.

    The host's speed drifts by tens of percent within seconds and from one
    minute to the next, for this process as for any other, so a latency in
    seconds says as much about the host as about novq.  Each latency is
    therefore divided by the mean time of the four reference runs nearest to
    it, two before and two after, which ran in about the same state of the
    host.

    wall_ref, the time to run the list once, sums each operation's median
    across the passes.  For the percentiles every operation stands for
    POINTS evenly spaced quantiles of its own latencies, so it weighs the
    same whatever number of passes fitted in the run, and a percentile falls
    on the same operation in every run.
    """
    walls, refs, timed = [], [], []  # timed: (operation, latency, index of the ref before it)
    t_start = time.perf_counter()
    while True:
        first = len(refs)
        wall, pass_lat, outcomes = run_pass(novq, ops, refs)
        walls.append(wall)
        timed += [(j, x, first + j) for j, x in enumerate(pass_lat)]
        tally.add(outcomes)
        elapsed = time.perf_counter() - t_start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            break
    per_op = [[] for _ in ops]
    for j, x, i in timed:
        per_op[j].append(x / statistics.mean(refs[max(0, i - 1):i + 3]))
    points = [x for samples in per_op
              for x in statistics.quantiles(samples, n=POINTS + 1, method="inclusive")]
    p = tail_percentile(len(ops))
    tail = percentile(points, p)
    return {
        "wall_ref": (sum(statistics.median(samples) for samples in per_op), "ref"),
        "op_p50_ref": (statistics.median(points), "ref"),
        "op_tail_ref": (tail, "ref"),
    }, {"passes": len(walls), "pass_walls_s": " ".join(f"{w:.3f}" for w in walls),
        "reference_ms_median": 1000 * statistics.median(refs),
        "reference_ms_range": f"{1000 * min(refs):.1f}-{1000 * max(refs):.1f}",
        "points": len(points), "tail_percentile": p,
        "beyond_tail": sum(1 for x in points if x > tail)}


def per_layer(novq, ops, tally):
    import tracing

    # the untimed counting pass goes first and warms up the timed runs
    with tracing.Counter(novq) as ct:
        _, _, outcomes = run_pass(novq, ops)
    tally.add(outcomes)
    stdout_bytes = sum(len(out.encode()) for (_, out, _), op in zip(outcomes, ops)
                       if op.argv is not None)
    # each operation runs untraced and traced back to back, in alternating
    # order, so that slow phases of the machine fall on both sides alike
    tr = tracing.Tracer(novq)
    untraced = traced = 0.0
    by_side = ([], [])
    for i, op in enumerate(ops):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            with tr if side else contextlib.nullcontext():
                t0 = time.perf_counter()
                by_side[side].append(run_op(novq, op))
                dt = time.perf_counter() - t0
            if side:
                traced += dt
            else:
                untraced += dt
    for outcomes in by_side:
        tally.add(outcomes)

    c = ct.counts
    layers = tr.layer_totals()
    ms = lambda name, field="total": 1000 * tr.total(name, field)
    folds = c["structures.scan_residuals.calls"] + c["structures.vanishing_locus.calls"]
    available = c["structures.tuples_available"]
    m = {
        "exactcore.rational_roots_calls": (c["exactcore.rational_roots.calls"], "count"),
        "exactcore.rational_roots_ms": (ms("exactcore.rational_roots"), "ms"),
        "exactcore.roots_max_bits": (ct.roots_max_bits, "bits"),
        "exactcore.roots_per_check": (
            c["exactcore.rational_roots.calls"] / folds if folds else 0.0, "ratio"),
        "exactcore.bareiss_calls": (c["exactcore.bareiss_det.calls"], "count"),
        "exactcore.bareiss_ms": (ms("exactcore.bareiss_det"), "ms"),
        "exactcore.scalar_ops_q": (c["scalar_ops.Q"], "count"),
        "exactcore.scalar_ops_qq": (c["scalar_ops.Q[q]"], "count"),
        "structures.check_axiom_calls": (c["structures.check_axiom.calls"], "count"),
        "structures.eval_ms": (ms("structures.items"), "ms"),
        "structures.fold_ms": (ms("structures.scan_residuals", "self"), "ms"),
        "structures.tuples_visited": (c["structures.tuples_visited"], "count"),
        "structures.nonzero_items": (c["structures.nonzero_items"], "count"),
        "structures.visit_ratio": (
            c["structures.tuples_visited"] / available if available else 0.0, "ratio"),
        "structures.lift_specialize_ms": (
            ms("structures.lift") + ms("structures.specialize"), "ms"),
        "presfile.parse_calls": (c["presfile.parse.calls"], "count"),
        "presfile.parse_ms": (ms("presfile.parse"), "ms"),
        "presfile.emit_calls": (c["presfile.emit.calls"], "count"),
        "presfile.emit_ms": (ms("presfile.emit"), "ms"),
        "presfile.bytes_in": (c["presfile.bytes_in"], "bytes"),
        "cli.self_ms": (1000 * layers["cli"][1], "ms"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
    }
    for layer in ("constructions", "bialgebra", "ybe"):
        m[f"{layer}.calls"] = (layers[layer][0], "count")
        m[f"{layer}.self_ms"] = (1000 * layers[layer][1], "ms")
    m.update({
        "liewindow.self_ms": (1000 * layers["liewindow"][1], "ms"),
        "liewindow.items": (c["liewindow.items"], "count"),
        "liewindow.jacobi_checked": (c["liewindow.jacobi_checked"], "count"),
        "liewindow.jacobi_skipped": (c["liewindow.jacobi_skipped"], "count"),
        "trace.overhead_s": (traced - untraced, "s"),
    })
    spans = [f"{parent} -> {name}: {calls} calls, {1000 * total:.1f} ms, self {1000 * own:.1f} ms"
             for (parent, name), (calls, total, own)
             in sorted(tr.edges.items(), key=lambda kv: -kv[1][2])]
    return m, {"untraced_wall_s": untraced, "traced_wall_s": traced}, spans


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "novq", "cli.py")):
        print(f"benchmark: no novq sources under {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.OPERATIONS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    setup_s = measure_setup() if not args.trace else None
    import novq
    import novq.cli  # noqa: F401  (also binds novq.cli for run_op)
    expected = json.loads(_read(EXPECTED))

    workdir = os.path.join(".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = workloads.OPERATIONS[args.workload](args.seed, workdir)
        tally = Tally(novq, ops, expected)
        if args.trace:
            metrics, info, spans = per_layer(novq, ops, tally)
            metrics["error_rate"] = (tally.error_rate, "ratio")
            metrics["known_defects_failed"] = (tally.defects, "count")
        else:
            metrics, info = end_to_end(novq, ops, args.seconds, tally)
            spans = []
            metrics["setup_s"] = (setup_s, "s")
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["peak_rss_mb"] = (rss, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads(_read(os.path.join(ROOT, "BENCHMARK.json")))
    want = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        print(f"benchmark: metrics {sorted(got.items())} differ from BENCHMARK.json "
              f"{sorted(want.items())}", file=sys.stderr)
        return 1

    print(f"# workload {args.workload} seed {args.seed}: {len(ops)} operations per pass, "
          + ", ".join(f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}"
                      for k, v in info.items()))
    print(f"# error_rate {tally.error_rate:.4g} ratio ({tally.wrong} wrong, "
          f"{tally.defects} known-defect failures, {tally.attempted} attempted)")
    for op_id, msg in sorted(tally.messages.items()):
        print(f"#   {op_id}: {msg}")
    for line in spans:
        print(f"# span {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.wrong,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
