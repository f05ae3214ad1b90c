"""The kill list: hand mutations of src/novq that the tests must catch.

Each mutant names a module of the package, an exact source fragment, its
replacement and the test module, or one test of it, that must fail on it.
For each mutant the script copies src/ to a temporary directory, replaces
every occurrence of the fragment there and runs the test module with
``pytest -x`` on that copy.
It fails when a fragment is missing, so a refactor that rewrites a fragment
must update its mutant, and when a mutant survives: its test module passes.
pytest does not collect this file (its name does not start with test_).

    python tests/mutants.py

To add a mutant, append a Mutant to MUTANTS with the fragment as it reads in
the source and the fastest test module (or test) that kills it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    module: str  # a file of src/novq
    fragment: str
    replacement: str
    tests: str  # the test module, or one test of it, that must fail
    what: str


_MODULE_ORACLE = ("tests/test_catalog.py::"
                  "test_module_and_pre_novikov_axioms_agree_with_naive_residuals")
_LONE_MAP = "tests/test_cli.py::test_a_lone_map_is_a_usage_error_naming_the_missing_slot"

MUTANTS = (
    Mutant("structures.py", "for block in (range(1), range(1, n))[:n]:",
           "for block in (range(n),):", "tests/test_structures.py",
           "check_axiom in one block: the early exit after first index 0 is lost"),
    Mutant("structures.py", "for block in (range(1), range(1, n))[:n]:",
           "for block in (range(1, n), range(1))[:n]:", "tests/test_structures.py",
           "check_axiom's blocks reversed: a witness from a late first index"),
    Mutant("structures.py", "range(1, n))[:n]", "range(n))[:n]", "tests/test_structures.py",
           "check_axiom's second block repeats first index 0"),
    Mutant("structures.py", "{(i, i): 1 for i in block}",
           "{(i, (i + 1) % n): 1 for i in block}", "tests/test_structures.py",
           "check_axiom's selector off its diagonal by one"),
    Mutant("structures.py", "t.slices(len(spaces))", "t.slices(len(spaces) - 1)",
           "tests/test_structures.py", "check_axiom's slices miss the selector's leg"),
    Mutant("structures.py", "for j, summands in enumerate(compiled.sums):",
           "for j, summands in reversed(list(enumerate(compiled.sums))):",
           "tests/test_catalog.py", "check_axiom contracts a hoisted sum before the sums it names"),
    Mutant("structures.py", "            if first is None:\n                first = (",
           "            if first is None or ring == POLY:\n                first = (",
           "tests/test_structures.py", "scan_residuals keeps the last witness over Q[q]"),
    Mutant("exactcore.py", "(2 * sum([b * (den // d) for _, d, b in parts])).bit_length() + 1",
           "sum([b * (den // d) for _, d, b in parts]).bit_length()",
           "tests/test_combination_oracle.py",
           "combination's packed width k = bitlen(B), one bit short of 2^(k-1) > B"),
    Mutant("exactcore.py", "k * top", "k * max(top - 1, 1)", "tests/test_combination_oracle.py",
           "combination's row stride one digit short, where rows pack and where they split"),
    Mutant("plans.py", "None if len(held) != 1", "None if not held",
           "tests/test_combination_oracle.py", "_plan packs a leg that two operands carry"),
    Mutant("exactcore.py", "2 * len(vs) * l // (", "2 * len(vs) // (",
           "tests/test_combination_oracle.py", "the density rule without l"),
    Mutant("exactcore.py", "._extent()[3] >= top for", "._extent()[3] >= 1 for",
           "tests/test_combination_oracle.py", "the density rule without the stride s"),
    Mutant("exactcore.py", "2 * len(vs) * l // (", "len(vs) // (",
           "tests/test_combination_oracle.py",
           "the density rule counts entries alone against the dense size"),
    Mutant("exactcore.py", "i = at.start() - at.start() % w", "i = at.start()",
           "tests/test_combination_oracle.py",
           "_digits resumes after a zero run at its first nonzero byte, not at its digit"),
    Mutant("exactcore.py",
           "        s = _exact(s)\n        return s if ring == RATIONAL",
           "        return s if ring == RATIONAL", "tests/test_numbers.py",
           "_unbox stores an integral Fraction as a Fraction"),
    Mutant("catalog.py", "_assoc(p, r or p, y, x, z)", "_assoc(p, r or p, x, y, z)",
           "tests/test_catalog.py",
           "left symmetry's second associator on (x, y, z): the template is vacuous"),
    Mutant("catalog.py", "_n(p((r or p)(x, z), y))", "_n(p((r or p)(x, y), z))",
           "tests/test_catalog.py",
           "right commutativity's second term on (x, y, z): the template is vacuous"),
    Mutant("catalog.py", "_n(p(_b, _a))", "_n(p(_a, _b))", "tests/test_catalog.py",
           "skew-symmetry's second term on (a, b): the template is vacuous"),
    Mutant("catalog.py", "_lsym(_dotD, _dotQ)", "_lsym(_dotQ, _dotD)", "tests/test_catalog.py",
           "SPEC_DEF_6 with its two products swapped"),
    Mutant("catalog.py", "_lsym(_f, _circ) + _lsym(_circ, _f)",
           "_lsym(_f, _circ) + _lsym(_f, _circ)", "tests/test_catalog.py",
           "DEFORM_2 with the products of one mixed instance swapped"),
    Mutant("catalog.py", "l(x, y) if _has(y, v) else r(y, x) if _has(x, v)",
           "r(x, y) if _has(y, v) else l(y, x) if _has(x, v)", _MODULE_ORACLE,
           "the product on A + V with its left and right actions swapped"),
    Mutant("catalog.py", "return e == v or type(e) is tuple and any(_has(x, v) for x in e)",
           "return e == v", _MODULE_ORACLE,
           "_has sees the module variable only at the top of an expression"),
    Mutant("catalog.py", "_rmap(rm, e) if _has(e, v)", "_m(m, e) if _has(e, v)", _MODULE_ORACLE,
           "the map of A + V applies the algebra's map on V"),
    Mutant("presfile.py",
           "            close_block()  # the open block's name too is taken\n"
           "            if any(parts[1] in bag for bag in bags.values()):\n"
           "                raise PresFileError(lineno, f\"duplicate name {parts[1]!r}\")\n",
           "            if any(parts[1] in bag for bag in bags.values()):\n"
           "                raise PresFileError(lineno, f\"duplicate name {parts[1]!r}\")\n"
           "            close_block()\n", "tests/test_input_paths.py",
           "parse checks a block's name against closed blocks only"),
    Mutant("cli.py", 'other = binds.get("D") if slot == "Q" else "Q"',
           'other = None if slot == "Q" else "Q"', _LONE_MAP,
           "_binds picks Q among all maps, so a lone map fills both D and Q"),
    Mutant("cli.py",
           "                if pres.maps and not table:\n"
           "                    raise _Usage(f\"the file defines no map for {slot} besides "
           "{other!r}\")\n", "", _LONE_MAP,
           "_binds without its guard: a lone map leaves no slot empty to name"),
    Mutant("cli.py", "if not (optional and bag", "if not (not optional and bag", _LONE_MAP,
           "_binds with optional inverted"),
)


def survives(m: Mutant) -> str | None:
    """Why m is not killed, or None when its test module fails on it."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "novq" / m.module
        text = path.read_text(encoding="utf-8")
        if m.fragment not in text:
            return f"fragment not found in src/novq/{m.module}"
        path.write_text(text.replace(m.fragment, m.replacement), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              m.tests], cwd=ROOT, env=env, capture_output=True, text=True)
    if run.returncode == 1:  # a test failed
        return None
    return f"pytest exited {run.returncode}:\n{run.stdout[-2000:]}{run.stderr[-2000:]}"


def main() -> int:
    bad = 0
    for k, m in enumerate(MUTANTS, 1):
        start = time.perf_counter()
        why = survives(m)
        took = time.perf_counter() - start
        print(f"{k}. {'killed' if why is None else 'SURVIVED'} in {took:.1f} s by {m.tests}: "
              f"{m.module}: {m.what}", flush=True)
        if why is not None:
            print(why)
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
