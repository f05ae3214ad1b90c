"""Tests of the benchmark itself: seeded inputs, tracer hygiene, a tiny run."""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import novq  # noqa: E402
import novq.cli  # noqa: E402,F401


@pytest.fixture
def in_root(monkeypatch, tmp_path):
    monkeypatch.chdir(run.ROOT)
    return str(tmp_path)


def _inputs(seed, workdir):
    os.makedirs(workdir)
    ops = {name: [op.id for op in workloads.OPERATIONS[name](seed, workdir)]
           for name in workloads.WORKLOADS}
    files = {f: open(os.path.join(workdir, f), "rb").read() for f in sorted(os.listdir(workdir))}
    return ops, files


def test_same_seed_gives_identical_inputs(in_root):
    ops, files = _inputs(5, os.path.join(in_root, "a"))
    assert files and (ops, files) == _inputs(5, os.path.join(in_root, "b"))
    ops6, files6 = _inputs(6, os.path.join(in_root, "c"))
    assert files6 != files and ops6["affine_window"] != ops["affine_window"]


def _snapshot():
    names = {}
    for modname, mod in sys.modules.items():
        if modname == "novq" or modname.startswith("novq."):
            names.update({(modname, k): v for k, v in vars(mod).items()})
    for cls in (novq.structures.Presentation, novq.exactcore.Scalar):
        names.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return names


def test_wrappers_are_removed_after_a_traced_run(in_root):
    ops = [op for op in workloads.symbolic_loci(1, in_root) if op.tiny]
    before = _snapshot()
    with tracing.Tracer(novq) as tr:
        assert novq.cli.check_axiom is not before[("novq.structures", "check_axiom")]
        run.run_pass(novq, ops)
    with tracing.Counter(novq) as ct:
        assert novq.exactcore.Scalar.__add__ is not before[("Scalar", "__add__")]
        run.run_pass(novq, ops)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # the spans and counts this relies on were taken
    assert tr.total("exactcore.rational_roots", "calls") > 0
    assert tr.total("structures.items", "calls") > 0
    assert ct.counts["exactcore.rational_roots.calls"] > 0
    assert ct.counts["scalar_ops.Q[q]"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_fails_only_known_defects(in_root, workload):
    ops = [op for op in workloads.OPERATIONS[workload](2, in_root) if op.tiny]
    tally = run.Tally(novq, ops, run.json.loads(run._read(run.EXPECTED)))
    tally.add(run.run_pass(novq, ops)[2])
    assert tally.wrong == 0, tally.messages
    defects = {op.id for op in ops if op.known_defect}
    assert defects and set(tally.messages) <= defects
