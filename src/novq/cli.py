"""Command line front end.

Each command reads a presentation file, runs one family of exact checks or
constructions, prints one line per check, and exits 0 when everything holds
(for locus: when the locus is nonempty), 1 when something fails, 2 on usage
or parse errors.  --json-out writes the same report as a machine-readable
sidecar.  Output is deterministic: same input, same bytes.
"""

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .bialgebra import (check_manin_triple, double_construction, novikov_bialgebra_locus,
                        zinbiel_double)
from .catalog import ADM_ZINBIEL, ADMISSIBLE, DIFF_ASI, NOV_BIALG, NOVIKOV, QUADRATIC
from .constructions import induce_nov_coalg, induce_novikov
from .exactcore import POLY, RATIONAL
from .liewindow import WindowSpec, polyalg_window_check, window_lie_bialgebra_check
from .presfile import MAX_DIGITS, PresFileError, emit, load
from .structures import (Presentation, PresentationError, check_all, check_axiom,
                         scan_residuals)
from .ybe import aybe_residual, nybe_residual, r_admissibility


# Input budgets, checked before any work: a window's graded tensors are
# allocated up front, and their size and the work of polywindow's checks grow
# with powers of the window width and of N.
MAX_WINDOW_DEGREES = 16
MAX_POLY_N = 24


class _Usage(Exception):
    pass


def _pick(table: dict, preferred: str, what: str) -> str:
    """Choose a named item: the conventional name if present, else the only one."""
    if preferred in table:
        return preferred
    if len(table) == 1:
        return next(iter(table))
    if not table:
        raise _Usage(f"the file defines no {what}")
    names = ", ".join(sorted(table))
    raise _Usage(f"cannot choose a {what} among {names}; name one {preferred!r}")


# Each slot a command binds: its Presentation field and the noun of its usage error.
_SLOTS = {**dict.fromkeys(("dot", "zin", "circ"), ("binops", "product")),
          **dict.fromkeys(("delta", "Delta"), ("coops", "coproduct")),
          **dict.fromkeys("DQ", ("maps", "map")), "B": ("forms", "form"),
          "r": ("relements", "r-element")}


def _binds(pres: Presentation, slots, optional: bool = False) -> dict:
    """The names bound to slots, each picked by _pick in the order given.  D is picked
    among the maps not named Q, then Q among the others, so a lone map leaves one slot
    empty and the usage error names it; with optional, a map that cannot be picked is
    None.  zin binds dot too: ADM_ZINBIEL's DERIV names its product so."""
    binds = {}
    for slot in slots:
        bag, what = _SLOTS[slot]
        table = getattr(pres, bag)
        try:
            if bag == "maps":
                other = binds.get("D") if slot == "Q" else "Q"
                table = {k: v for k, v in table.items() if k != other}
                if pres.maps and not table:
                    raise _Usage(f"the file defines no map for {slot} besides {other!r}")
            binds[slot] = _pick(table, slot, what)
        except _Usage:
            if not (optional and bag == "maps"):
                raise
            binds[slot] = None
    return {**binds, "dot": binds["zin"]} if "zin" in binds else binds


def _require(reports: dict) -> None:
    """Raise unless every report holds: a builder's precondition, checked by the caller."""
    bad = [str(r) for r in reports.values() if not r.holds]
    if bad:
        raise PresentationError("precondition failed: " + "; ".join(bad))


def _zinbiel_double(pres: Presentation) -> Presentation:
    """The double of a file without a coproduct, once ADM_ZINBIEL holds."""
    binds = _binds(pres, ("zin", "D", "Q"))
    _require(check_all(ADM_ZINBIEL, pres, binds))
    return zinbiel_double(pres, binds["zin"], binds["D"], binds["Q"])


def _fraction(text: str, flag: str) -> Fraction:
    # integers, a/b and plain decimals in ASCII, as in a file; an exponent such
    # as 1e-5000 would ask for a number of 5000 digits from a few characters.  A
    # run of digits, which may hold underscores, has the budget of a file's numbers.
    digits = max((len(run) - run.count("_") for run in re.findall(r"\d(?:_?\d)*", text)),
                 default=0)
    if digits > MAX_DIGITS:
        raise _Usage(f"{flag} wants a rational number, got a number of {digits} digits")
    try:
        if "e" in text.lower() or not text.isascii():
            raise ValueError(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _Usage(f"{flag} wants a rational number, got {text!r}") from None


def _report_rows(reports) -> tuple[int, list]:
    rows = []
    ok = True
    for key, rep in reports.items():
        print(rep)
        ok = ok and rep.holds
        rows.append({
            "check": str(key),
            "id": rep.axiom_id,
            "verdict": rep.verdict,
            "witness": list(rep.witness) if rep.witness else None,
            "locus": str(rep.locus) if rep.locus is not None else None,
            "residual_degree": rep.residual_degree,
        })
    return (0 if ok else 1), rows


def _finish_checks(reports) -> tuple[int, dict]:
    code, rows = _report_rows(reports)
    print("all checks hold" if code == 0 else "some checks fail")
    return code, {"checks": rows}


def _emit_out(pres: Presentation, path) -> dict:
    text = emit(pres)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return {"emitted": path, "dim": pres.dim, "ring": pres.ring}


# Each verify profile: the structure it checks (manin: check_manin_triple's own) and
# the slots it binds, in pick order.
_PROFILES = {"novikov": (NOVIKOV, ("circ",)),
             "zinbiel": (ADM_ZINBIEL, ("zin", "D", "Q")),
             "diff-asi": (DIFF_ASI, ("dot", "delta", "D", "Q")),
             "novikov-bialgebra": (NOV_BIALG, ("circ", "Delta")),
             "manin": (None, ("circ",)),
             "quadratic": (QUADRATIC, ("circ", "B"))}


def _run_verify(args) -> tuple[int, dict]:
    pres = load(args.file)
    structure, slots = _PROFILES[args.profile]
    binds = _binds(pres, slots, optional=args.profile == "zinbiel")
    if args.profile == "zinbiel":
        # DERIV needs D, and ZINB_ADMISS both maps; a map that cannot be picked is None
        structure = structure[:1 if binds["D"] is None else 2 if binds["Q"] is None else 3]
    elif args.profile == "manin":
        if args.dimA is not None and 2 * args.dimA != pres.dim:
            raise _Usage(f"--dimA {args.dimA} does not split the {pres.dim}-dimensional "
                         "space in half")
        if pres.dim % 2:
            raise _Usage(f"the manin profile splits the space in half, but its dimension "
                         f"{pres.dim} is odd")
        return _finish_checks(check_manin_triple(pres, binds["circ"]))
    return _finish_checks(check_all(structure, pres, binds))


def _run_induce(args) -> tuple[int, dict]:
    pres = load(args.file)
    if args.q == "sym":
        pres = pres.lift()
        q = None
    else:
        q = _fraction(args.q, "--q")
        if pres.ring == POLY:
            pres = pres.specialize(q)
    p = _fraction(args.p, "--p")
    binds = _binds(pres, ("dot", "D", "Q"))
    _require(check_all(ADMISSIBLE, pres, binds))
    dmap, qmap = pres.linmap(binds["D"]), pres.linmap(binds["Q"])
    circ = induce_novikov(pres.binop(binds["dot"]), dmap, qmap, p=p, q=q)
    coops = {}
    if pres.coops:
        binds.update(_binds(pres, ("delta",)))
        _require({"CO_ADMISS": check_axiom("CO_ADMISS", pres, binds)})
        coops["Delta"] = induce_nov_coalg(pres.coop(binds["delta"]), qmap, dmap, q=q)
    out = Presentation(ring=circ.ring, space=pres.space,
                       binops={"circ": circ}, coops=coops)
    return 0, _emit_out(out, args.emit)


def _run_double(args) -> tuple[int, dict]:
    pres = load(args.file)
    if pres.coops:
        binds = _binds(pres, _PROFILES["diff-asi"][1])
        _require(check_all(DIFF_ASI, pres, binds))
        out = double_construction(pres, **binds)
    else:
        out = _zinbiel_double(pres)
    return 0, _emit_out(out, args.emit)


def _run_ybe(args) -> tuple[int, dict]:
    pres = load(args.file)
    rname = args.r or _binds(pres, ("r",))["r"]
    if rname not in pres.relements:
        raise _Usage(f"no r-element named {rname!r}")
    r = pres.relements[rname]
    if args.check == "admissible":
        binds = _binds(pres, ("D", "Q"))
        rep = r_admissibility(r, pres.linmap(binds["D"]), pres.linmap(binds["Q"]))
    else:
        slot, residual = (("dot", aybe_residual) if args.check == "aybe"
                          else ("circ", nybe_residual))
        op = pres.binop(_binds(pres, (slot,))[slot])
        rep = scan_residuals(args.check.upper(), pres.ring, [((rname,), residual(r, op))])
    return _finish_checks({args.check: rep})


def _run_locus(args) -> tuple[int, dict]:
    pres = load(args.file)
    if not pres.coops:
        pres = _zinbiel_double(pres)
    locus = novikov_bialgebra_locus(pres, **_binds(pres, _PROFILES["diff-asi"][1]))
    print(locus)
    nonempty = not locus.is_empty()
    return (0 if nonempty else 1), {"locus": str(locus), "nonempty": nonempty}


def _run_window(args) -> tuple[int, dict]:
    if args.min > args.max:
        raise _Usage(f"empty degree window: --min {args.min} is above --max {args.max}")
    if args.max - args.min >= MAX_WINDOW_DEGREES:
        raise _Usage(f"a window of {args.max - args.min + 1} degrees exceeds the budget of "
                     f"{MAX_WINDOW_DEGREES}")
    pres = load(args.file)
    if pres.ring != RATIONAL:
        raise _Usage("window checks want a rational presentation; induce first")
    w = WindowSpec(args.min, args.max, _fraction(args.q, "--q"))
    res = window_lie_bialgebra_check(pres, w, **_binds(pres, _PROFILES["diff-asi"][1]))
    code, rows = _report_rows(res.reports)
    print(f"jacobi triples: {res.jacobi_checked} checked, "
          f"{res.jacobi_skipped} outside the window")
    print(res.note)
    print("all checks hold" if code == 0 else "some checks fail")
    return code, {"checks": rows, "jacobi_checked": res.jacobi_checked,
                  "jacobi_skipped": res.jacobi_skipped, "note": res.note}


def _run_polywindow(args) -> tuple[int, dict]:
    if args.N < 2:
        raise _Usage(f"--N must be at least 2 for a nontrivial coproduct, got {args.N}")
    if args.N > MAX_POLY_N:
        raise _Usage(f"--N {args.N} exceeds the budget of {MAX_POLY_N}")
    q = None if args.q == "sym" else _fraction(args.q, "--q")
    reports = polyalg_window_check(args.N, q)
    return _finish_checks(reports)


@functools.cache
def _build() -> argparse.ArgumentParser:
    # built once per process: prog is fixed, argparse reads the terminal width
    # and the output streams only when it prints, and parse_args returns a new Namespace
    ap = argparse.ArgumentParser(
        prog="novq",
        description="exact checks and constructions for deformed Novikov structures")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json-out", metavar="PATH",
                        help="also write the report as JSON")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="run an axiom bundle against a presentation file")
    p.add_argument("file")
    p.add_argument("--profile", required=True, choices=list(_PROFILES))
    p.add_argument("--dimA", type=int, default=None,
                   help="left half dimension for the manin profile")
    p.set_defaults(run=_run_verify)

    p = sub.add_parser("induce", parents=[common],
                       help="build the deformed product and coproduct")
    p.add_argument("file")
    p.add_argument("--q", required=True, help="rational value or 'sym'")
    p.add_argument("--p", default="1", help="scale on the derivation term")
    p.add_argument("--emit", metavar="PATH", help="write the result here")
    p.set_defaults(run=_run_induce)

    p = sub.add_parser("double", parents=[common],
                       help="build the bialgebra double on A + A*")
    p.add_argument("file")
    p.add_argument("--emit", metavar="PATH", help="write the result here")
    p.set_defaults(run=_run_double)

    p = sub.add_parser("ybe", parents=[common],
                       help="test an r-element against a Yang-Baxter equation")
    p.add_argument("file")
    p.add_argument("--r", default=None, help="name of the r-element")
    p.add_argument("--check", required=True, choices=["aybe", "nybe", "admissible"])
    p.set_defaults(run=_run_ybe)

    p = sub.add_parser("locus", parents=[common],
                       help="q values where the induced pair is a Novikov bialgebra")
    p.add_argument("file")
    p.set_defaults(run=_run_locus)

    p = sub.add_parser("window", parents=[common],
                       help="windowed Lie bialgebra checks on the affinization")
    p.add_argument("file")
    p.add_argument("--q", required=True)
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(run=_run_window)

    p = sub.add_parser("polywindow", parents=[common],
                       help="windowed checks for the truncated polynomial family")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--q", default="sym", help="rational value or 'sym'")
    p.set_defaults(run=_run_polywindow)
    return ap


def _join_value_flags(argv: list) -> list:
    """Glue --q/--p to their value so negative rationals do not look like flags."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--q", "--p") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


_ERROR_KINDS = {_Usage: "usage error", PresFileError: "parse error"}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build().parse_args(_join_value_flags(list(argv)))
    # inputs keep the default digit budget (presfile.MAX_DIGITS), but a
    # computed coefficient may be longer and must still print
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        try:
            code, payload = args.run(args)
        except PresentationError as e:
            print(f"check failed: {e}", file=sys.stderr)
            code, payload = 1, {"error": str(e)}
        except (_Usage, PresFileError, OSError) as e:  # OSError: reading or writing a file
            line = f"{_ERROR_KINDS.get(type(e), 'error')}: {e}"
            print(line, file=sys.stderr)
            code, payload = 2, {"error": line}
        if args.json_out:
            doc = {"command": args.command, "exit_code": code, **payload}
            with open(args.json_out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return code
    except OSError as e:  # writing the sidecar
        print(f"error: {e}", file=sys.stderr)
    finally:
        sys.set_int_max_str_digits(limit)
    return 2


if __name__ == "__main__":
    sys.exit(main())
