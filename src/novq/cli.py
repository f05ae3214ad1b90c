"""Command line front end.

Each command reads a presentation file, runs one family of exact checks or
constructions, prints one line per check, and exits 0 when everything holds
(for locus: when the locus is nonempty), 1 when something fails, 2 on usage
or parse errors.  --json-out writes the same report as a machine-readable
sidecar.  Output is deterministic: same input, same bytes.
"""

import argparse
import json
import sys
from fractions import Fraction

from .bialgebra import (check_admissible_zinbiel, check_diff_asi_bialgebra,
                        check_manin_triple, check_novikov_bialgebra,
                        double_construction, novikov_bialgebra_locus,
                        quadratic_novikov_check, zinbiel_double)
from .constructions import induce_nov_coalg, induce_novikov
from .exactcore import POLY, RATIONAL
from .liewindow import WindowSpec, polyalg_window_check, window_lie_bialgebra_check
from .presfile import PresFileError, emit, load
from .structures import (Presentation, PresentationError, check_axiom,
                         is_admissible_quadruple, scan_residuals)
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


def _pick_maps(pres: Presentation, optional: bool = False) -> tuple:
    """(D, Q): D is picked among the maps not named Q, then Q among the others.

    A lone map leaves one slot empty, and the usage error names it.  With
    optional, a map that cannot be picked is None instead.
    """
    def pick(slot: str, other: str | None):
        table = {k: v for k, v in pres.maps.items() if k != other}
        try:
            if pres.maps and not table:
                raise _Usage(f"the file defines no map for {slot} besides {other!r}")
            return _pick(table, slot, "map")
        except _Usage:
            if optional:
                return None
            raise

    dmap = pick("D", "Q")
    return dmap, pick("Q", dmap)


def _pick_slots(pres: Presentation) -> tuple[str, str, str, str]:
    """(dot, delta, D, Q), picked in that order."""
    return (_pick(pres.binops, "dot", "product"), _pick(pres.coops, "delta", "coproduct"),
            *_pick_maps(pres))


def _require(reports: dict) -> None:
    """Raise unless every report holds: a builder's precondition, checked by the caller."""
    bad = [str(r) for r in reports.values() if not r.holds]
    if bad:
        raise PresentationError("precondition failed: " + "; ".join(bad))


def _zinbiel_double(pres: Presentation) -> Presentation:
    """The double of a file without a coproduct, once its Zinbiel bundle holds."""
    slots = (_pick(pres.binops, "zin", "product"), *_pick_maps(pres))
    _require(check_admissible_zinbiel(pres, *slots))
    return zinbiel_double(pres, *slots)


def _fraction(text: str, flag: str) -> Fraction:
    try:
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


def _run_verify(args) -> tuple[int, dict]:
    pres = load(args.file)
    profile = args.profile
    if profile == "novikov":
        circ = _pick(pres.binops, "circ", "product")
        reports = {a: check_axiom(a, pres, {"circ": circ})
                   for a in ("NOV_LSYM", "NOV_RCOMM")}
    elif profile == "zinbiel":
        dmap, qmap = _pick_maps(pres, optional=True)
        reports = check_admissible_zinbiel(pres, _pick(pres.binops, "zin", "product"),
                                           dmap, qmap)
    elif profile == "diff-asi":
        reports = check_diff_asi_bialgebra(pres, *_pick_slots(pres))
    elif profile == "novikov-bialgebra":
        reports = check_novikov_bialgebra(pres, _pick(pres.binops, "circ", "product"),
                                          _pick(pres.coops, "Delta", "coproduct"))
    elif profile == "manin":
        circ = _pick(pres.binops, "circ", "product")
        if args.dimA is not None and 2 * args.dimA != pres.dim:
            raise _Usage(f"--dimA {args.dimA} does not split the {pres.dim}-dimensional "
                         "space in half")
        if pres.dim % 2:
            raise _Usage(f"the manin profile splits the space in half, but its dimension "
                         f"{pres.dim} is odd")
        reports = check_manin_triple(pres, circ)
    else:  # quadratic
        reports = quadratic_novikov_check(pres, _pick(pres.binops, "circ", "product"),
                                          _pick(pres.forms, "B", "form"))
    return _finish_checks(reports)


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
    dot = _pick(pres.binops, "dot", "product")
    dmap, qmap = _pick_maps(pres)
    _require(is_admissible_quadruple(pres, dot, dmap, qmap))
    circ = induce_novikov(pres.binop(dot), pres.linmap(dmap), pres.linmap(qmap), p=p, q=q)
    coops = {}
    if pres.coops:
        delta = _pick(pres.coops, "delta", "coproduct")
        _require({"CO_ADMISS": check_axiom("CO_ADMISS", pres,
                                           {"delta": delta, "D": dmap, "Q": qmap})})
        coops["Delta"] = induce_nov_coalg(pres.coop(delta), pres.linmap(qmap),
                                          pres.linmap(dmap), q=q)
    out = Presentation(ring=circ.ring, space=pres.space,
                       binops={"circ": circ}, coops=coops)
    return 0, _emit_out(out, args.emit)


def _run_double(args) -> tuple[int, dict]:
    pres = load(args.file)
    if pres.coops:
        slots = _pick_slots(pres)
        _require(check_diff_asi_bialgebra(pres, *slots))
        out = double_construction(pres, *slots)
    else:
        out = _zinbiel_double(pres)
    return 0, _emit_out(out, args.emit)


def _run_ybe(args) -> tuple[int, dict]:
    pres = load(args.file)
    rname = args.r or _pick(pres.relements, "r", "r-element")
    if rname not in pres.relements:
        raise _Usage(f"no r-element named {rname!r}")
    r = pres.relements[rname]
    if args.check == "aybe":
        dot = _pick(pres.binops, "dot", "product")
        rep = scan_residuals("AYBE", pres.ring,
                             [((rname,), aybe_residual(r, pres.binop(dot)))])
    elif args.check == "nybe":
        circ = _pick(pres.binops, "circ", "product")
        rep = scan_residuals("NYBE", pres.ring,
                             [((rname,), nybe_residual(r, pres.binop(circ)))])
    else:
        dmap, qmap = _pick_maps(pres)
        rep = r_admissibility(r, pres.linmap(dmap), pres.linmap(qmap))
    return _finish_checks({args.check: rep})


def _run_locus(args) -> tuple[int, dict]:
    pres = load(args.file)
    if not pres.coops:
        pres = _zinbiel_double(pres)
    locus = novikov_bialgebra_locus(pres, *_pick_slots(pres))
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
    res = window_lie_bialgebra_check(pres, w, *_pick_slots(pres))
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


def _build() -> argparse.ArgumentParser:
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
    p.add_argument("--profile", required=True,
                   choices=["novikov", "zinbiel", "diff-asi", "novikov-bialgebra",
                            "manin", "quadratic"])
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


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build().parse_args(_join_value_flags(list(argv)))
    code = 2
    payload = {}
    try:
        code, payload = args.run(args)
    except _Usage as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except PresFileError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PresentationError as e:
        print(f"check failed: {e}", file=sys.stderr)
        code, payload = 1, {"error": str(e)}
    if args.json_out:
        doc = {"command": args.command, "exit_code": code, **payload}
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
