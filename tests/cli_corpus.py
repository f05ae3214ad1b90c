"""The byte-identity corpus: the command line run in-process over every fixture.

The inputs are every file of fixtures/ and perfbench/fixtures/, plus a copy of
each Q file with its ring line changed to Q[q].  Three more copies of each file
of fixtures/ reach the command line's slot picking: one with every block renamed
off its conventional name, one without its map D and one without its map Q.  On
each input the script runs all six verify profiles, manin with --dimA 1, 2 and
3, induce at several q (twice with --p) and double, each with --emit, the three
ybe checks, locus and window at two q; then polywindow at N = 2..6, symbolic and
at q = -1/2.  Every run writes --json-out.  It prints one line per run: the
argv, with the temporary directory written <tmp>, the exit code, and the sha256
of stdout, stderr, the sidecar and the emitted file (- where there is none),
each read with <tmp> in place of the temporary directory.  The run count and
the time taken go to stderr.

Two source trees give the same bytes when their outputs are equal.  The
output is committed as tests/cli_corpus.txt, and CI compares a fresh run
with it:

    PYTHONPATH=src python tests/cli_corpus.py | diff tests/cli_corpus.txt -

pytest does not collect this file (its name does not start with test_).
"""

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
import time
from pathlib import Path

from novq import cli
from novq.presfile import BLOCKS

ROOT = Path(__file__).resolve().parent.parent

PROFILES = ("novikov", "zinbiel", "diff-asi", "novikov-bialgebra", "manin", "quadratic")

_HEADER = re.compile(rf"^({'|'.join(BLOCKS)}) (\S+)$", re.MULTILINE)


def variants(text: str) -> dict:
    """Copies of a file by suffix: renamed (each block's name gains a 1), no-D and
    no-Q (the file without that map's block)."""
    def drop(name: str) -> str:
        return re.sub(rf"^map {name}\n(?:.+\n)*\n?", "", text, flags=re.MULTILINE)

    return {"renamed": _HEADER.sub(r"\1 \g<2>1", text), "no-D": drop("D"), "no-Q": drop("Q")}


def commands(path: str, tmp: str):
    """The argv lists run on one input file; emitted files go to tmp."""
    for profile in PROFILES:
        yield ["verify", path, "--profile", profile]
    for half in (1, 2, 3):
        yield ["verify", path, "--profile", "manin", "--dimA", str(half)]
    for q, p in (("-1/2", None), ("sym", None), ("0", None), ("2", None), ("-1/2", "0"),
                 ("1/3", "2")):
        yield ["induce", path, "--q", q, *(["--p", p] if p else []), "--emit", f"{tmp}/out"]
    yield ["double", path, "--emit", f"{tmp}/out"]
    for check in ("aybe", "nybe", "admissible"):
        yield ["ybe", path, "--check", check]
    yield ["locus", path]
    yield ["window", path, "--q", "-1/2", "--min", "-1", "--max", "1"]
    yield ["window", path, "--q", "0", "--min", "-2", "--max", "1"]


def run(argv: list, tmp: str) -> str:
    """One line: the argv, the exit code and the digests of what the run wrote."""
    side, emitted = Path(tmp, "side.json"), Path(tmp, "out")
    for f in (side, emitted):
        f.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([*argv, "--json-out", str(side)])
        except SystemExit as e:  # argparse refuses the arguments
            code = e.code

    def digest(text) -> str:
        return "-" if text is None else hashlib.sha256(
            text.replace(tmp, "<tmp>").encode("utf-8")).hexdigest()

    files = [f.read_text(encoding="utf-8") if f.exists() else None for f in (side, emitted)]
    shown = " ".join(a.replace(tmp, "<tmp>") for a in argv)
    return "\t".join([shown, str(code), *map(digest, [out.getvalue(), err.getvalue(), *files])])


def main() -> int:
    start, count = time.perf_counter(), 0
    os.chdir(ROOT)  # the fixtures are named relative to the checkout
    with tempfile.TemporaryDirectory() as tmp:
        inputs = []
        for folder in ("fixtures", "perfbench/fixtures"):
            for f in sorted(Path(folder).iterdir()):
                inputs.append(f"{folder}/{f.name}")
                text = f.read_text(encoding="utf-8")
                if "\nring Q\n" in text:  # the same file over Q[q]
                    copy = Path(tmp, f"{folder.replace('/', '-')}-{f.name}-Qq")
                    copy.write_text(text.replace("\nring Q\n", "\nring Q[q]\n"), encoding="utf-8")
                    inputs.append(str(copy))
        for f in sorted(Path("fixtures").iterdir()):
            for suffix, text in variants(f.read_text(encoding="utf-8")).items():
                copy = Path(tmp, f"fixtures-{f.name}-{suffix}")
                copy.write_text(text, encoding="utf-8")
                inputs.append(str(copy))
        argvs = [argv for path in inputs for argv in commands(path, tmp)]
        argvs += [["polywindow", "--N", str(n), *q] for n in range(2, 7)
                  for q in ([], ["--q", "-1/2"])]
        for argv in argvs:
            print(run(argv, tmp), flush=True)
            count += 1
    print(f"{count} runs in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
