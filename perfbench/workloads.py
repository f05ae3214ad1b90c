"""The benchmark's three workloads, each a fixed list of operations.

An operation is one novq command line, run in-process through
novq.cli.main, or one library call.  Each carries the answer it must give:
known by construction (admissible quadruple, basis change or scale of a
fixture, window that holds), computed by the naive oracle (perturbed
copies), or recorded from the program when the benchmark was added
(expected.json).

Operations marked known_defect are inputs on which the CLI does not yet
keep its 0/1/2 exit codes; they expect exit 2 and count as errors until
fixed.
"""

import os
import random
from dataclasses import dataclass

import gen
import oracle

FIXTURES = os.path.join("perfbench", "fixtures")
WORKLOADS = ("rational_cli", "symbolic_loci", "affine_window")


@dataclass
class Op:
    id: str
    argv: tuple | None = None   # a novq command line
    call: object = None          # or a library call, given the novq package
    exit: int | None = 0         # expected exit code of a command
    stdout: str | None = None    # expected stdout, byte for byte
    golden: bool = False         # compare with the result in expected.json
    files: tuple = ()            # files the command writes, compared with the record
    check: object = None         # further test of stdout: returns an error or None
    known_defect: bool = False
    tiny: bool = False           # part of the small run in the benchmark's own tests


def _fx(name):
    return os.path.join(FIXTURES, name)


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


HOLDS_NOVIKOV = "NOV_LSYM: holds\nNOV_RCOMM: holds\nall checks hold\n"


def rational_cli(seed, workdir):
    """Every subcommand over Q: fixtures, derived fixtures, generated quadruples."""
    w = lambda name: os.path.join(workdir, name)
    ops = [
        Op("verify-exnov1-diff-asi", ("verify", _fx("exnov1"), "--profile", "diff-asi",
                                      "--json-out", w("v1.json")),
           golden=True, files=(w("v1.json"),), tiny=True),
        Op("verify-examp2-diff-asi", ("verify", _fx("examp2-double"), "--profile", "diff-asi"),
           golden=True),
        Op("verify-examp2-novikov", ("verify", _fx("examp2-double"), "--profile", "novikov"),
           golden=True),
        Op("verify-zinb-deriv-zinbiel", ("verify", _fx("zinb-deriv"), "--profile", "zinbiel"),
           golden=True),
        Op("verify-zinb-nonderiv-zinbiel", ("verify", _fx("zinb-nonderiv"), "--profile",
                                            "zinbiel", "--json-out", w("v2.json")),
           golden=True, files=(w("v2.json"),)),
        Op("verify-exnov1-novikov-bialgebra", ("verify", _fx("exnov1"), "--profile",
                                               "novikov-bialgebra"), exit=1, golden=True),
        Op("verify-examp2-novikov-bialgebra", ("verify", _fx("examp2-double"), "--profile",
                                               "novikov-bialgebra"), exit=1, golden=True),
        Op("verify-form4-manin", ("verify", _fx("exnov1-double-q-1_2-form"), "--profile",
                                  "manin"), golden=True),
        Op("verify-form4-quadratic", ("verify", _fx("exnov1-double-q-1_2-form"), "--profile",
                                      "quadratic", "--json-out", w("v3.json")),
           golden=True, files=(w("v3.json"),)),
        Op("verify-zinb-deriv-double-manin", ("verify", _fx("zinb-deriv-double"), "--profile",
                                              "manin"), exit=1, golden=True),
        Op("induce-exnov1", ("induce", _fx("exnov1"), "--q", "-1/2", "--emit", w("i1")),
           stdout=f"wrote {w('i1')}\n", golden=True, files=(w("i1"),), tiny=True),
        Op("induce-examp2", ("induce", _fx("examp2-double"), "--q", "-1/2", "--emit", w("i2")),
           stdout=f"wrote {w('i2')}\n", golden=True, files=(w("i2"),)),
        Op("double-exnov1", ("double", _fx("exnov1")), golden=True, tiny=True),
        Op("double-zinb-deriv", ("double", _fx("zinb-deriv")), golden=True),
        # the double of zinb-nonderiv is the examp2-double fixture, byte for byte
        Op("double-zinb-nonderiv", ("double", _fx("zinb-nonderiv")),
           stdout=_read(_fx("examp2-double"))),
        Op("ybe-aybe", ("ybe", _fx("examp2-double-r"), "--check", "aybe"), golden=True,
           tiny=True),
        Op("ybe-admissible", ("ybe", _fx("examp2-double-r"), "--check", "admissible"),
           golden=True),
        Op("ybe-nybe-holds", ("ybe", _fx("examp2-circ-q-1_2-r"), "--check", "nybe"),
           golden=True),
        Op("ybe-nybe-fails", ("ybe", _fx("examp2-circ-q-1-r"), "--check", "nybe"),
           exit=1, golden=True),
        Op("polywindow-N5", ("polywindow", "--N", "5", "--q", "3/2"), golden=True, tiny=True),
        Op("polywindow-N6", ("polywindow", "--N", "6", "--q", "-1/2"), golden=True),
        Op("defect-manin-dimA", ("verify", _fx("examp2-double"), "--profile", "manin",
                                 "--dimA", "2"), exit=2, known_defect=True, tiny=True),
    ]
    rng = random.Random(f"rational_cli/q/{seed}")
    for name, text, c, perturbed in gen.quadruple_files(seed):
        path = _write(workdir, name, text)
        small = name.startswith("quad0")
        code, out = oracle.verify_novikov_stdout(c)
        ops.append(Op(f"verify-{name}", ("verify", path, "--profile", "novikov"),
                      exit=code, stdout=out, tiny=small))
        q = rng.choice(("-1/2", "1/3", "2", "-3/2"))
        if perturbed:
            # the broken commutativity fails the admissibility precondition
            ops.append(Op(f"induce-{name}", ("induce", path, "--q", q, "--emit", path + ".circ"),
                          exit=1, stdout="", tiny=small))
        else:
            # an admissible quadruple induces a Novikov product
            ops.append(Op(f"induce-{name}", ("induce", path, "--q", q, "--emit", path + ".circ"),
                          stdout=f"wrote {path}.circ\n", tiny=small))
            ops.append(Op(f"verify-{name}-induced", ("verify", path + ".circ", "--profile",
                                                     "novikov"),
                          stdout=HOLDS_NOVIKOV, tiny=small))
    return ops


def _families(name):
    def call(novq):
        pres = novq.presfile.load(_fx(name))
        pa = novq.bialgebra.prenov_double_family(pres)
        pb = novq.bialgebra.double_induced_family(pres)
        return pa, pb, novq.bialgebra.family_difference_locus(pa, pb)
    return call


def symbolic_loci(seed, workdir):
    """Work over Q[q]: loci after basis change and scaling, families, polywindow."""
    ops = []
    for name, text, fixture in gen.zinbiel_files(seed):
        path = _write(workdir, name, text)
        ops.append(Op(f"locus-{name}", ("locus", path),
                      stdout=gen.ZINBIEL_LOCUS[fixture] + "\n",
                      tiny="-own-x1-" in name))
    ops += [
        Op("induce-sym-examp2", ("induce", _fx("examp2-double"), "--q", "sym"), golden=True,
           tiny=True),
        Op("induce-sym-zinb-deriv-double", ("induce", _fx("zinb-deriv-double"), "--q", "sym"),
           golden=True),
        Op("ybe-nybe-sym", ("ybe", _fx("zinb-deriv-circ-sym-r"), "--check", "nybe"),
           golden=True),
        Op("families-zinb-deriv", call=_families("zinb-deriv"), golden=True, tiny=True),
        Op("families-zinb-nonderiv", call=_families("zinb-nonderiv"), golden=True),
        Op("polywindow-sym-N8", ("polywindow", "--N", "8"), golden=True),
        Op("defect-polywindow-N1", ("polywindow", "--N", "1"), exit=2, known_defect=True,
           tiny=True),
    ]
    return ops


def _window_holds(n, width):
    """stdout test for a window check that holds: every identity, every triple."""
    def check(out):
        lines = out.splitlines()
        want = ["LIE_SKEW: holds", "LIE_JACOBI: holds", "COLIE_ANTICOCOMM: holds",
                "COLIE_COJACOBI: holds", "LIE_BIALG_COCYCLE: holds"]
        if lines[:5] != want or lines[-1] != "all checks hold" or len(lines) != 8:
            return "window verdict differs from 'holds'"
        words = lines[5].split()
        checked, skipped = int(words[2]), int(words[4])
        if checked + skipped != (n * width) ** 3:
            return f"jacobi triples {checked}+{skipped} do not cover the window"
        return None
    return check


def affine_window(seed, workdir):
    """Windowed affinization checks: liewindow's dense tensor work."""
    ops = []
    for q, lo, hi in gen.EXNOV1_WINDOWS:
        width = hi - lo + 1
        ops.append(Op(f"window-exnov1-q{q}-[{lo},{hi}]",
                      ("window", _fx("exnov1"), "--q", q, "--min", str(lo), "--max", str(hi)),
                      check=_window_holds(2, width), tiny=width == 5))
    ops += [
        Op("window-examp2-q-1/2", ("window", _fx("examp2-double"), "--q", "-1/2",
                                   "--min", "-1", "--max", "1"), golden=True),
        # q = 1 is off the deformation locus of exnov1: precondition rejected
        Op("window-exnov1-q1-rejected", ("window", _fx("exnov1"), "--q", "1",
                                         "--min", "-2", "--max", "2"),
           exit=1, stdout="", tiny=True),
        Op("defect-window-empty", ("window", _fx("exnov1"), "--q", "-1/2",
                                   "--min", "3", "--max", "1"),
           exit=2, known_defect=True, tiny=True),
    ]
    return gen.operation_order(seed, ops)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


OPERATIONS = {"rational_cli": rational_cli, "symbolic_loci": symbolic_loci,
            "affine_window": affine_window}
