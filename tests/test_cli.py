import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles as orc
from novq import (POLY, RATIONAL, cli, induce_nov_coalg, induce_novikov, load, parse,
                  presfile)
from novq.cli import main
from novq.presfile import MAX_DIGITS

F = Fraction


def _canonical_r_lines(names, dim_a):
    lines = ["", "relement r"]
    for i in range(dim_a):
        lines.append(f"{names[i]} {names[dim_a + i]} -> 1")
        lines.append(f"{names[dim_a + i]} {names[i]} -> -1")
    return "\n".join(lines) + "\n"


def test_verify_diff_asi_profile(capsys):
    assert main(["verify", "fixtures/exnov1", "--profile", "diff-asi"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[-1] == "all checks hold"
    assert len(lines) == 11
    assert all(line.endswith(": holds") for line in lines[:-1])
    assert any(line.startswith("ASI_1") for line in lines)


def test_verify_zinbiel_profile(capsys):
    for fx in ("fixtures/zinb-deriv", "fixtures/zinb-nonderiv"):
        assert main(["verify", fx, "--profile", "zinbiel"]) == 0
        out = capsys.readouterr().out
        assert "ZINBIEL: holds" in out
        assert "ZINB_ADMISS: holds" in out


def test_verify_novikov_failure(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_text("space 2 e1 e2\nring Q\nproduct circ\ne1 e2 -> e1\n")
    assert main(["verify", str(bad), "--profile", "novikov"]) == 1
    out = capsys.readouterr().out
    assert "NOV_LSYM: fails at (e1, e2, e2)" in out
    assert out.strip().splitlines()[-1] == "some checks fail"


def test_induce_rational_golden(tmp_path, capsys):
    target = tmp_path / "out"
    assert main(["induce", "fixtures/exnov1", "--q", "-1/2",
                 "--emit", str(target)]) == 0
    assert f"wrote {target}" in capsys.readouterr().out
    pres = parse(target.read_text())
    assert pres.ring == RATIONAL
    t = orc.op_table(pres.binop("circ"))
    assert t[0][0][0] == {0: F(-1, 2)}
    assert t[0][1][1] == {0: F(1)}
    assert t[1][0][1] == {0: F(-1, 2)}
    assert not any(t[1][1])
    d = orc.cop_table(pres.coop("Delta"))
    assert d[1][1][1] == {0: F(-1, 2)}
    assert d[0] == [[{} for _ in range(2)] for _ in range(2)]


def test_induce_symbolic_stdout(capsys):
    assert main(["induce", "fixtures/exnov1", "--q", "sym"]) == 0
    out = capsys.readouterr().out
    assert out == ("space 2 e1 e2\n"
                   "ring Q[q]\n"
                   "\n"
                   "product circ\n"
                   "e1 e1 -> q*e1\n"
                   "e1 e2 -> e2\n"
                   "e2 e1 -> q*e2\n"
                   "\n"
                   "coproduct Delta\n"
                   "e2 -> q*e2 (x) e2\n")


def test_induce_bad_q_is_usage_error(capsys):
    assert main(["induce", "fixtures/exnov1", "--q", "abc"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "--q" in err


def test_decimal_exponents_are_usage_errors(capsys):
    # Fraction reads 1e-5000 as 1/10^5000, a number of 5000 digits from 7 characters
    for flag, text, argv in (("--q", "1e-5000", ["induce", "fixtures/exnov1"]),
                             ("--q", "1e-5000", ["window", "fixtures/exnov1",
                                                 "--min", "-1", "--max", "1"]),
                             ("--p", "1E9", ["induce", "fixtures/exnov1", "--q", "1"])):
        assert main(argv + [flag, text]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == \
            ("", f"usage error: {flag} wants a rational number, got {text!r}\n")
    # plain decimals still read
    assert main(["induce", "fixtures/exnov1", "--q", "-0.5", "--p", "1.0"]) == 0
    decimal = capsys.readouterr().out
    assert main(["induce", "fixtures/exnov1", "--q", "-1/2"]) == 0
    assert capsys.readouterr().out == decimal


def test_non_ascii_digits_are_usage_errors(capsys):
    # Fraction reads the Arabic-Indic three as 3; a file's numbers are ASCII only
    for flag, text, argv in (("--q", "\u0663", ["induce", "fixtures/exnov1"]),
                             ("--q", "-1/\u0662", ["window", "fixtures/exnov1",
                                                  "--min", "-1", "--max", "1"]),
                             ("--p", "\uff12", ["induce", "fixtures/exnov1", "--q", "1"])):
        assert main(argv + [flag, text]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == \
            ("", f"usage error: {flag} wants a rational number, got {text!r}\n")
    # ASCII integers, fractions and decimals read as before
    from novq import Presentation

    pres = load("fixtures/exnov1")
    D, Q = pres.linmap("D"), pres.linmap("Q")
    for q_text, p_text, q, p in (("3", "1", 3, 1), ("-1/2", "3", F(-1, 2), 3),
                                 ("-0.5", "-0.5", F(-1, 2), F(-1, 2))):
        want = Presentation(RATIONAL, pres.space,
                            binops={"circ": induce_novikov(pres.binop("dot"), D, Q, p=p, q=q)},
                            coops={"Delta": induce_nov_coalg(pres.coop("delta"), Q, D, q=q)})
        assert main(["induce", "fixtures/exnov1", "--q", q_text, "--p", p_text]) == 0
        assert capsys.readouterr().out == presfile.emit(want)


def test_double_pipeline_manin(tmp_path, capsys):
    d12 = tmp_path / "d12"
    assert main(["double", "fixtures/examp2-double", "--emit", str(d12)]) == 0
    pres = parse(d12.read_text())
    assert pres.dim == 12
    n12 = tmp_path / "n12"
    assert main(["induce", str(d12), "--q", "-1/2", "--emit", str(n12)]) == 0
    assert main(["verify", str(n12), "--profile", "manin"]) == 0
    out = capsys.readouterr().out
    assert "BILIN_INV_NOV: holds" in out
    assert "SUBALG_LEFT: holds" in out


def test_double_of_zinbiel_matches_fixture(tmp_path):
    target = tmp_path / "dbl"
    assert main(["double", "fixtures/zinb-nonderiv", "--emit", str(target)]) == 0
    with open("fixtures/examp2-double", encoding="utf-8") as fh:
        assert target.read_text() == fh.read()


def test_double_and_locus_of_a_zinbiel_file_with_primed_names(tmp_path, capsys):
    # e2 renamed e1': the dual half is e1'' e1''' e3', so no name repeats
    path, target = tmp_path / "zin", tmp_path / "dbl"
    with open("fixtures/zinb-nonderiv", encoding="utf-8") as fh:
        path.write_text(fh.read().replace("e2", "e1'"))
    assert main(["double", str(path), "--emit", str(target)]) == 0
    assert parse(target.read_text()).space.names == ("e1", "e1'", "e3", "e1''", "e1'''", "e3'")
    capsys.readouterr()
    assert main(["locus", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "{-1/2, -1}"


def test_verify_quadratic_profile(tmp_path, capsys):
    d4 = tmp_path / "d4"
    assert main(["double", "fixtures/exnov1", "--emit", str(d4)]) == 0
    n4 = tmp_path / "n4"
    assert main(["induce", str(d4), "--q", "-1/2", "--emit", str(n4)]) == 0
    text = n4.read_text() + ("\nform B\n"
                             "e1 e1' -> 1\n"
                             "e1' e1 -> 1\n"
                             "e2 e2' -> 1\n"
                             "e2' e2 -> 1\n")
    withform = tmp_path / "n4b"
    withform.write_text(text)
    assert main(["verify", str(withform), "--profile", "quadratic"]) == 0
    out = capsys.readouterr().out
    assert "FORM_NONDEG: holds" in out
    # the same profile without a form in the file is a usage error
    assert main(["verify", str(n4), "--profile", "quadratic"]) == 2
    assert "no form" in capsys.readouterr().err


def test_ybe_aybe_and_admissible(tmp_path, capsys):
    with open("fixtures/examp2-double", encoding="utf-8") as fh:
        base = fh.read()
    names = parse(base).space.names
    target = tmp_path / "withr"
    target.write_text(base + _canonical_r_lines(names, 3))
    assert main(["ybe", str(target), "--check", "aybe"]) == 0
    assert "AYBE: holds" in capsys.readouterr().out
    assert main(["ybe", str(target), "--check", "admissible"]) == 0
    assert "R_ADMISS: holds" in capsys.readouterr().out


def test_ybe_admissible_failure(tmp_path, capsys):
    bad = tmp_path / "badr"
    bad.write_text("space 2 e1 e2\nring Q\nmap D\ne2 -> e2\nmap Q\ne1 -> e1\n"
                   "relement r\ne1 e1 -> 1\n")
    assert main(["ybe", str(bad), "--check", "admissible"]) == 1
    out = capsys.readouterr().out
    assert "R_ADMISS: fails" in out


def test_ybe_nybe_symbolic_and_specialized(tmp_path, capsys):
    mid = tmp_path / "circ6"
    assert main(["induce", "fixtures/zinb-deriv-double", "--q", "sym",
                 "--emit", str(mid)]) == 0
    text = mid.read_text()
    names = parse(text).space.names
    withr = tmp_path / "withr"
    withr.write_text(text + _canonical_r_lines(names, 3))
    assert main(["ybe", str(withr), "--check", "nybe"]) == 0
    assert "NYBE: holds" in capsys.readouterr().out

    # the non-derivation double solves it at -1/2 and misses at -1
    for qval, want in (("-1/2", 0), ("-1", 1)):
        m2 = tmp_path / f"c{want}"
        assert main(["induce", "fixtures/examp2-double", "--q", qval,
                     "--emit", str(m2)]) == 0
        t2 = m2.read_text()
        w2 = tmp_path / f"w{want}"
        w2.write_text(t2 + _canonical_r_lines(parse(t2).space.names, 3))
        assert main(["ybe", str(w2), "--check", "nybe"]) == want
    assert "NYBE: fails" in capsys.readouterr().out


def test_locus_outputs(capsys):
    assert main(["locus", "fixtures/examp2-double"]) == 0
    assert capsys.readouterr().out.strip() == "{-1/2, -1}"
    assert main(["locus", "fixtures/zinb-deriv-double"]) == 0
    assert capsys.readouterr().out.strip() == "all q"
    assert main(["locus", "fixtures/exnov1"]) == 0
    assert capsys.readouterr().out.strip() == "{0, -1/2}"
    # a plain Zinbiel file goes through its double first
    assert main(["locus", "fixtures/zinb-nonderiv"]) == 0
    assert capsys.readouterr().out.strip() == "{-1/2, -1}"


def test_window_output(capsys):
    assert main(["window", "fixtures/exnov1", "--q", "-1/2",
                 "--min", "-3", "--max", "3"]) == 0
    out = capsys.readouterr().out
    assert "jacobi triples: 1120 checked, 1624 outside the window" in out
    assert "all checks hold" in out
    assert "LIE_BIALG_COCYCLE: holds" in out


def test_window_rejects_bad_point(capsys):
    assert main(["window", "fixtures/exnov1", "--q", "1",
                 "--min", "-1", "--max", "1"]) == 1
    assert "check failed:" in capsys.readouterr().err


def test_polywindow(capsys):
    assert main(["polywindow", "--N", "4"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "all checks hold"
    assert len([l for l in out.splitlines() if ": holds" in l]) == 7
    assert main(["polywindow", "--N", "3", "--q", "3/2"]) == 0


def test_json_out_verify(tmp_path):
    side = tmp_path / "report.json"
    assert main(["verify", "fixtures/exnov1", "--profile", "diff-asi",
                 "--json-out", str(side)]) == 0
    doc = json.loads(side.read_text())
    assert doc["command"] == "verify"
    assert doc["exit_code"] == 0
    assert len(doc["checks"]) == 10
    row = doc["checks"][0]
    assert set(row) == {"check", "id", "verdict", "witness", "locus",
                        "residual_degree"}
    assert all(r["verdict"] == "holds" for r in doc["checks"])


def test_json_out_locus(tmp_path):
    side = tmp_path / "locus.json"
    assert main(["locus", "fixtures/examp2-double", "--json-out", str(side)]) == 0
    doc = json.loads(side.read_text())
    assert doc == {"command": "locus", "exit_code": 0,
                   "locus": "{-1/2, -1}", "nonempty": True}


def test_missing_file_and_parse_error(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nope"), "--profile", "novikov"]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "garbage"
    bad.write_text("this is not a presentation\n")
    assert main(["verify", str(bad), "--profile", "novikov"]) == 2
    assert "parse error: line" in capsys.readouterr().err


def test_unknown_profile_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "fixtures/exnov1", "--profile", "wat"])
    assert exc.value.code == 2


def test_negative_rational_after_space():
    # --q -1/2 with a space must not be read as a new flag
    assert main(["induce", "fixtures/exnov1", "--q", "-1/2"]) == 0
    assert main(["window", "fixtures/exnov1", "--q", "-1/2",
                 "--min", "0", "--max", "0"]) == 0


def test_manin_dim_a_not_half_is_usage_error(capsys):
    # a 6-dimensional double cannot split as 2 + 4; that is a bad flag, not a failed check
    assert main(["verify", "fixtures/examp2-double", "--profile", "manin",
                 "--dimA", "2"]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


def test_manin_on_odd_dimension_is_usage_error(capsys):
    # without --dimA a 3-dimensional file has no half to split off
    assert main(["verify", "fixtures/zinb-deriv", "--profile", "manin"]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("usage error:") and out.out == ""


def test_polywindow_degree_below_two_is_usage_error(capsys):
    assert main(["polywindow", "--N", "1"]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


def test_window_with_min_above_max_is_usage_error(capsys):
    assert main(["window", "fixtures/exnov1", "--q", "-1/2",
                 "--min", "3", "--max", "1"]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


WINDOW_STDOUT = """\
LIE_SKEW: holds
LIE_JACOBI: holds
COLIE_ANTICOCOMM: holds
COLIE_COJACOBI: holds
LIE_BIALG_COCYCLE: holds
jacobi triples: 1120 checked, 1624 outside the window
window-restricted: degrees outside the window are not certified
all checks hold
"""


def test_window_golden(tmp_path, capsys):
    side = tmp_path / "window.json"
    assert main(["window", "fixtures/exnov1", "--q", "-1/2", "--min", "-3", "--max", "3",
                 "--json-out", str(side)]) == 0
    assert capsys.readouterr().out == WINDOW_STDOUT
    checks = [{"check": aid, "id": aid, "locus": None, "residual_degree": -1,
               "verdict": "holds", "witness": None}
              for aid in ("LIE_SKEW", "LIE_JACOBI", "COLIE_ANTICOCOMM", "COLIE_COJACOBI",
                          "LIE_BIALG_COCYCLE")]
    doc = {"checks": checks, "command": "window", "exit_code": 0, "jacobi_checked": 1120,
           "jacobi_skipped": 1624,
           "note": "window-restricted: degrees outside the window are not certified"}
    assert side.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_window_width_budget_is_usage_error(capsys, monkeypatch):
    import novq.cli as cli
    from novq.cli import MAX_WINDOW_DEGREES
    # refused before the file is read or any tensor is built
    monkeypatch.setattr(cli, "load", lambda path: pytest.fail("loaded the file"))
    assert main(["window", "fixtures/exnov1", "--q", "-1/2",
                 "--min", "-1000000000000", "--max", "1000000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and f"budget of {MAX_WINDOW_DEGREES}" in err
    assert main(["window", "fixtures/exnov1", "--q", "-1/2",
                 "--min", "0", "--max", str(MAX_WINDOW_DEGREES)]) == 2
    monkeypatch.undo()
    assert main(["window", "fixtures/exnov1", "--q", "-1/2",
                 "--min", "0", "--max", str(MAX_WINDOW_DEGREES - 1)]) == 0


def test_polywindow_degree_budget_is_usage_error(capsys, monkeypatch):
    import novq.cli as cli
    from novq.cli import MAX_POLY_N
    from novq.liewindow import polyalg_window_check
    seen = []
    monkeypatch.setattr(cli, "polyalg_window_check",
                        lambda N, q: seen.append(N) or polyalg_window_check(2, q))
    assert main(["polywindow", "--N", "1000000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and f"budget of {MAX_POLY_N}" in err
    assert main(["polywindow", "--N", str(MAX_POLY_N + 1)]) == 2
    assert seen == []
    assert main(["polywindow", "--N", str(MAX_POLY_N)]) == 0
    assert seen == [MAX_POLY_N]


def test_verify_zinbiel_profile_resolves_d_and_q_as_double_does(tmp_path, capsys):
    # the only map not named Q is D, whatever its name; this one is no derivation
    text = Path("fixtures/zinb-deriv").read_text(encoding="utf-8")
    broken = text.replace("map D\ne1 -> e1\n", "map Der\ne1 -> e1 + e2\n")
    assert broken != text
    path = tmp_path / "zinb-der"
    path.write_text(broken)
    assert main(["verify", str(path), "--profile", "zinbiel"]) == 1
    out = capsys.readouterr().out
    assert "DERIV: fails at (e1, e1)" in out and "ZINB_ADMISS:" in out
    assert main(["double", str(path)]) == 1
    assert "DERIV: fails at (e1, e1)" in capsys.readouterr().err


def test_failed_checks_name_the_files_own_basis(tmp_path, capsys):
    # the checks run on the file's presentation, so a witness names its vectors
    # ("a", "b"), never an e1..en basis the file does not have
    def run(text, *argv):
        path, report = tmp_path / "in", tmp_path / "out.json"
        path.write_text("space 2 a b\nring Q\n" + text)
        code = main([argv[0], str(path), *argv[1:], "--json-out", str(report)])
        return code, capsys.readouterr(), json.loads(report.read_text())

    # a b -> b without b a -> b: the product is not commutative
    code, out, doc = run("product dot\na a -> a\na b -> b\nmap D\nb -> b\nmap Q\na -> a\n",
                         "induce", "--q", "1")
    assert code == 1 and out.out == ""
    assert out.err == "check failed: precondition failed: COMM: fails at (a, b)\n"
    assert doc["error"] == "precondition failed: COMM: fails at (a, b)"

    # exnov1's pair induced at q = 1, which is no Novikov bialgebra
    code, out, doc = run("product circ\na a -> a\na b -> b\nb a -> b\n"
                         "coproduct Delta\nb -> b (x) b\n",
                         "verify", "--profile", "novikov-bialgebra")
    assert code == 1 and "NOV_BIALG_1: fails at (a, b)\n" in out.out
    assert [row["witness"] for row in doc["checks"] if row["witness"]] == [["a", "b"]]

    code, out, doc = run("product circ\na a -> a\nb b -> b\nform B\na b -> 1\nb a -> 1\n",
                         "verify", "--profile", "quadratic")
    assert code == 1 and "BILIN_INV_NOV: fails at (a, a, b)\n" in out.out
    assert [row["witness"] for row in doc["checks"] if row["witness"]] == [["a", "a", "b"]]


def test_induce_scales_the_derivation_by_p(capsys):
    from novq import Presentation, induce_nov_coalg, induce_novikov, load
    from novq.presfile import emit

    pres = load("fixtures/exnov1")
    D, Q = pres.linmap("D"), pres.linmap("Q")
    want = Presentation(RATIONAL, pres.space,
                        binops={"circ": induce_novikov(pres.binop("dot"), D, Q, p=F(-1, 2), q=1)},
                        coops={"Delta": induce_nov_coalg(pres.coop("delta"), Q, D, q=1)})
    assert main(["induce", "fixtures/exnov1", "--q", "1", "--p", "-1/2"]) == 0
    assert capsys.readouterr().out == emit(want)

    assert main(["induce", "fixtures/exnov1", "--q", "1", "--p", "x"]) == 2
    assert capsys.readouterr().err.startswith("usage error: --p wants a rational number")


def test_a_lone_map_is_a_usage_error_naming_the_missing_slot(tmp_path, capsys):
    # zinb-deriv without its map Q: the one map fills D, whatever its name, and Q is missing
    text = Path("fixtures/zinb-deriv").read_text(encoding="utf-8")
    lone = text[:text.index("map Q")]
    for name in ("X", "D"):
        path = tmp_path / f"zinb-{name}"
        path.write_text(lone.replace("map D\n", f"map {name}\n"))
        for argv in (["double", str(path)], ["induce", str(path), "--q", "-1/2"]):
            assert main(argv) == 2, (name, argv)
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == f"usage error: the file defines no map for Q besides '{name}'\n"
        # verify's Q is optional, so ZINB_ADMISS is skipped
        assert main(["verify", str(path), "--profile", "zinbiel"]) == 0
        out = capsys.readouterr().out
        assert "DERIV: holds" in out and "ZINB_ADMISS" not in out


def test_a_json_out_that_cannot_be_written_is_an_error(tmp_path, capsys):
    # a path in a missing directory, and a directory: the report stays on stdout
    for side in (tmp_path / "missing" / "x.json", tmp_path):
        assert main(["verify", "fixtures/exnov1", "--profile", "novikov",
                     "--json-out", str(side)]) == 2
        out = capsys.readouterr()
        assert out.out == "NOV_LSYM: holds\nNOV_RCOMM: holds\nall checks hold\n"
        assert out.err.startswith("error: [Errno") and out.err.endswith(f"{str(side)!r}\n")


def _scaled_exnov1(tmp_path, factor: str):
    """exnov1 with D and Q each scaled by factor."""
    text = Path("fixtures/exnov1").read_text(encoding="utf-8")
    text = text.replace("map D\ne2 -> e2", f"map D\ne2 -> {factor}*e2")
    path = tmp_path / "scaled"
    path.write_text(text.replace("map Q\ne1 -> e1", f"map Q\ne1 -> {factor}*e1"))
    return str(path)


def test_computed_coefficients_past_the_int_digit_limit_print(tmp_path, capsys, monkeypatch):
    # every input number is under the budget, but their products are not
    path, q = _scaled_exnov1(tmp_path, "9" * 4000), "7" * 4000
    limit = sys.get_int_max_str_digits()
    assert main(["induce", path, "--q", q]) == 0
    assert sys.get_int_max_str_digits() == limit
    out = capsys.readouterr()
    assert out.err == "" and max(map(len, re.findall(r"\d+", out.out))) > MAX_DIGITS
    pres = load(path)
    D, Q = pres.linmap("D"), pres.linmap("Q")
    want = ({"circ": induce_novikov(pres.binop("dot"), D, Q, q=Fraction(q))},
            {"Delta": induce_nov_coalg(pres.coop("delta"), Q, D, q=Fraction(q))})
    monkeypatch.setattr(presfile, "MAX_DIGITS", 10 ** 5)  # read the output back
    sys.set_int_max_str_digits(0)
    try:
        got = parse(out.out)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (got.binops, got.coops) == want


def test_input_numbers_keep_the_digit_budget(tmp_path, capsys):
    long, limit = "7" * (MAX_DIGITS + 1), sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_DIGITS + 100)  # main restores what it found
    try:
        assert main(["induce", _scaled_exnov1(tmp_path, long), "--q", "1"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"parse error: line 14: a number of {len(long)} digits is too long\n"
        # the message names the flag and the digit count, not the whole argument
        assert main(["induce", "fixtures/exnov1", "--q", long]) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: --q wants a rational number, got a number of " \
                      f"{len(long)} digits\n"
        assert main(["induce", "fixtures/exnov1", "--q", "1", "--p", f"-2/{long}_7"]) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: --p wants a rational number, got a number of " \
                      f"{len(long) + 1} digits\n"
        assert sys.get_int_max_str_digits() == MAX_DIGITS + 100
        # a run of digits may hold underscores, as in int(), and a run at the budget passes
        assert main(["induce", "fixtures/exnov1", "--q", "1_" * MAX_DIGITS + "1"]) == 2
        assert main(["induce", "fixtures/exnov1", "--q", f"1/{long[1:]}"]) == 0
    finally:
        sys.set_int_max_str_digits(limit)



def test_json_out_records_usage_parse_and_io_errors(tmp_path, capsys):
    side, bad = tmp_path / "side.json", tmp_path / "garbage"
    bad.write_text("this is not a presentation\n")
    for argv in (["induce", "fixtures/exnov1", "--q", "x"],
                 ["verify", str(bad), "--profile", "novikov"],
                 ["verify", str(tmp_path / "nope"), "--profile", "novikov"],
                 ["double", "fixtures/exnov1", "--emit", str(tmp_path / "missing" / "d")]):
        assert main(argv + ["--json-out", str(side)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(side.read_text()) == {"command": argv[0], "exit_code": 2,
                                                "error": err[:-1]}
        side.unlink()
    # an error whose sidecar cannot be written either reports both
    side = tmp_path / "missing" / "x.json"
    assert main(["induce", "fixtures/exnov1", "--q", "x", "--json-out", str(side)]) == 2
    first, second = capsys.readouterr().err.splitlines()
    assert first == "usage error: --q wants a rational number, got 'x'"
    assert second.startswith("error: [Errno") and second.endswith(f"{str(side)!r}")


def test_json_out_is_not_written_when_argparse_rejects_the_command_line(tmp_path, capsys):
    side = tmp_path / "side.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "fixtures/exnov1", "--json-out", str(side)])  # no --profile
    assert exc.value.code == 2 and not side.exists()
    assert "the following arguments are required: --profile" in capsys.readouterr().err


def test_main_builds_the_parser_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    counts = []
    for runs in ([["verify", "fixtures/exnov1", "--profile", "novikov"]],
                 [["verify", "fixtures/exnov1", "--profile", "novikov"],
                  ["locus", "fixtures/examp2-double"], ["polywindow", "--N", "3"]]):
        cli._build.cache_clear()
        built.clear()
        for argv in runs:
            assert main(argv) == 0
        counts.append(len(built))
    assert counts[0] == counts[1] > 1  # the parser, the shared options, the subcommands


# --help, argparse's own errors (a missing --profile, a bad --check choice) and a
# usage error of the program
PARSER_RUNS = (["--help"], ["verify", "--help"], ["verify", "fixtures/exnov1"],
               ["ybe", "fixtures/exnov1", "--check", "wat"],
               ["induce", "fixtures/exnov1", "--q", "x"])


def _outcomes(capsys, runs):
    out = []
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        out.append((code, got.out, got.err))
    return out


def test_the_cached_parser_prints_what_a_fresh_one_prints(monkeypatch, capsys):
    # argparse reads prog from argv[0] unless it is given, and the terminal width
    # when it prints; the second width runs on the parser built at the first
    monkeypatch.setattr(sys, "argv", ["venv/bin/console-script"])
    cli._build.cache_clear()
    seen = {}
    for columns in (None, "40"):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        first = _outcomes(capsys, PARSER_RUNS)
        later = _outcomes(capsys, PARSER_RUNS)
        with monkeypatch.context() as m:
            m.setattr(cli, "_build", cli._build.__wrapped__)  # a parser built per call
            fresh = _outcomes(capsys, PARSER_RUNS)
        assert first == later == fresh
        assert [code for code, _, _ in first] == [0, 0, 2, 2, 2]
        assert first[0][1].startswith("usage: novq [-h]")
        assert first[1][1].startswith("usage: novq verify [-h]")
        assert first[2][2].startswith("usage: novq verify [-h]")
        assert first[4][2] == "usage error: --q wants a rational number, got 'x'\n"
        seen[columns] = first
    description = "exact checks and constructions for deformed Novikov structures"
    assert description in seen[None][0][1]
    assert description.replace(" deformed", "\ndeformed") in seen["40"][0][1]
