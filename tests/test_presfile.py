import random
from fractions import Fraction

import pytest

import oracles as orc
from novq import POLY, PresFileError, RATIONAL, Scalar, emit, load, parse, save
from novq.cli import main
from novq.presfile import MAX_NESTING, MAX_POWER

F = Fraction

FIXTURES = ("fixtures/exnov1", "fixtures/zinb-deriv", "fixtures/zinb-nonderiv",
            "fixtures/examp2-double", "fixtures/zinb-deriv-double")


def _same_tables(a, b):
    assert a.ring == b.ring
    assert a.space.names == b.space.names
    assert sorted(a.binops) == sorted(b.binops)
    for k in a.binops:
        assert orc.op_table(a.binop(k)) == orc.op_table(b.binop(k))
    assert sorted(a.coops) == sorted(b.coops)
    for k in a.coops:
        assert orc.cop_table(a.coop(k)) == orc.cop_table(b.coop(k))
    assert sorted(a.maps) == sorted(b.maps)
    for k in a.maps:
        assert orc.map_table(a.linmap(k)) == orc.map_table(b.linmap(k))


def test_roundtrip_fixtures():
    for fx in FIXTURES:
        pres = load(fx)
        again = parse(emit(pres))
        _same_tables(pres, again)
        # emitting the reparse gives the same canonical text
        assert emit(again) == emit(pres)


def test_save_load_roundtrip(tmp_path):
    for fx in FIXTURES:
        pres = load(fx)
        target = tmp_path / "copy"
        save(target, pres)
        again = load(target)
        _same_tables(pres, again)
        assert emit(again) == emit(pres)


def test_emit_canonical_golden():
    want = ("space 2 e1 e2\n"
            "ring Q\n"
            "\n"
            "product dot\n"
            "e1 e1 -> e1\n"
            "e1 e2 -> e2\n"
            "e2 e1 -> e2\n"
            "\n"
            "coproduct delta\n"
            "e2 -> e2 (x) e2\n"
            "\n"
            "map D\n"
            "e2 -> e2\n"
            "\n"
            "map Q\n"
            "e1 -> e1\n")
    assert emit(load("fixtures/exnov1")) == want


def test_parse_scalars_and_ring():
    pres = parse("space 2 a b\n"
                 "ring Q[q]\n"
                 "product circ\n"
                 "a a -> (1 + 3*q)*b\n"
                 "a b -> -1/2*a + q^2*b\n"
                 "b b -> 0\n")
    assert pres.ring == POLY
    t = orc.op_table(pres.binop("circ"))
    assert t[0][0][1] == {0: F(1), 1: F(3)}
    assert t[0][1][0] == {0: F(-1, 2)}
    assert t[0][1][1] == {2: F(1)}
    assert not any(t[1][1])


def test_parse_coproduct_map_form_relement():
    pres = parse("# header comment\n"
                 "space 2 e1 e2\n"
                 "ring Q\n"
                 "coproduct delta\n"
                 "e1 -> e1 (x) e2 - e2 (x) e1\n"
                 "map D\n"
                 "e1 -> e1 + 2*e2\n"
                 "form B\n"
                 "e1 e2 -> 1\n"
                 "e2 e1 -> 1\n"
                 "relement r\n"
                 "e1 e2 -> 1/3\n")
    d = orc.cop_table(pres.coop("delta"))
    assert d[0][0][1] == {0: F(1)} and d[0][1][0] == {0: F(-1)}
    m = orc.map_table(pres.linmap("D"))
    assert m[0][0] == {0: F(1)} and m[1][0] == {0: F(2)}
    assert pres.form("B").dense[0][1].val == 1
    assert pres.relement("r").dense[0][1].val == F(1, 3)


def test_parse_errors_carry_line_numbers():
    cases = (
        ("space 2 e1 e2\nring Q\nproduct dot\ne1 e3 -> e1\n", 4, "left side"),
        ("space 2 e1 e2\nring Q\nproduct dot\ne1 e2 -> e1\ne1 e2 -> e2\n", 5,
         "duplicate entry"),
        ("space 2 e1 e2\nring Q\nproduct dot\ne1 e2 -> q*e1\n", 4, "ring Q[q]"),
        ("space 2 e1 e1\nring Q\n", 1, "repeated basis name"),
        ("space 2 e1 q\nring Q[q]\n", 1, "reserved"),
        ("space 2 e1 e2\nring Z\n", 2, "ring must be"),
        ("space 2 e1 e2\nring Q\ne1 e2 -> e1\n", 3, "outside any block"),
        ("space 2 e1 e2\nring Q\nproduct dot\ne1 e2 -> 1/0*e1\n", 4,
         "zero denominator"),
        ("space 2 e1 e2\nring Q\nmap D\ne1 -> e1 (x) e2\n", 4, "trailing"),
    )
    for text, lineno, frag in cases:
        with pytest.raises(PresFileError) as exc:
            parse(text)
        assert exc.value.lineno == lineno, text
        assert frag in str(exc.value), text
        assert str(exc.value).startswith(f"line {lineno}:")


def test_parse_missing_header():
    with pytest.raises(PresFileError):
        parse("ring Q\n")
    with pytest.raises(PresFileError):
        parse("")


def test_zero_rhs_and_comments():
    pres = parse("space 1 e1\n"
                 "ring Q\n"
                 "# a product that vanishes identically\n"
                 "product dot\n"
                 "e1 e1 -> 0\n")
    assert not any(orc.op_table(pres.binop("dot"))[0][0])


def test_emit_parenthesizes_polynomial_coefficients():
    pres = parse("space 2 a b\nring Q[q]\nproduct circ\na a -> (1 + q)*b\n")
    text = emit(pres)
    assert "(1 + q)*b" in text
    again = parse(text)
    assert orc.op_table(again.binop("circ")) == orc.op_table(pres.binop("circ"))


def _verify_file(tmp_path, coeff, capsys):
    path = tmp_path / "budget"
    path.write_text(f"space 2 a b\nring Q[q]\nproduct circ\na a -> {coeff}*b\n")
    code = main(["verify", str(path), "--profile", "novikov"])
    return code, capsys.readouterr()


def test_nesting_budget_is_a_parse_error(tmp_path, capsys):
    code, out = _verify_file(tmp_path, "(" * 3000 + "2" + ")" * 3000, capsys)
    assert code == 2 and out.out == ""
    assert out.err.startswith("parse error: line 4:") and "nested deeper" in out.err
    ok = "(" * MAX_NESTING + "2" + ")" * MAX_NESTING
    assert parse(f"space 1 a\nring Q\nproduct dot\na a -> {ok}*a\n").binop("dot").entry(0, 0, 0) \
        == Scalar.of(RATIONAL, 2)


def test_power_budget_is_a_parse_error(tmp_path, capsys):
    # each would multiply for hours; the budget refuses them before the first product
    for coeff in ("q^1000000000000", "((q^64)^64)", "0^1000000000000", "(2/3)^100000"):
        code, out = _verify_file(tmp_path, coeff, capsys)
        assert code == 2 and out.out == "", coeff
        assert out.err.startswith("parse error: line 4:") and "budget" in out.err, coeff
    # q has size 5 (degree 1, coefficient bits 1 and 2), so q^819 is the largest power of q
    big = parse(f"space 1 a\nring Q[q]\nproduct dot\na a -> q^{MAX_POWER // 5}*a\n")
    assert big.binop("dot").entry(0, 0, 0).degree() == MAX_POWER // 5
    with pytest.raises(PresFileError):
        parse(f"space 1 a\nring Q[q]\nproduct dot\na a -> q^{MAX_POWER // 5 + 1}*a\n")


def test_number_past_the_int_digit_limit_is_a_parse_error(tmp_path, capsys):
    # 5,000 digits is past the interpreter's default limit of 4,300 for int()
    code, out = _verify_file(tmp_path, "9" * 5000, capsys)
    assert code == 2 and out.out == ""
    assert out.err.startswith("parse error: line 4:") and "5000 digits" in out.err
    # a superscript digit passes str.isdigit but not int()
    code, out = _verify_file(tmp_path, "\u00b2", capsys)
    assert code == 2 and out.err.startswith("parse error: line 4:")


def test_dimension_past_the_int_digit_limit_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "dim"
    path.write_text(f"space {'9' * 5000} a b\nring Q\nproduct dot\na a -> a\n")
    assert main(["verify", str(path), "--profile", "novikov"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("parse error: line 1:")


def test_dimension_budget_is_a_parse_error(tmp_path, capsys, monkeypatch):
    from novq import presfile

    def never(*args, **kwargs):
        raise AssertionError("built a space or a block past the dimension budget")

    names = " ".join(f"e{i}" for i in range(presfile.MAX_DIM + 1))
    path = tmp_path / "wide"
    path.write_text(f"space {presfile.MAX_DIM + 1} {names}\nring Q\nproduct circ\ne0 e0 -> e0\n")
    with monkeypatch.context() as m:
        for name in ("Space", "Tensor"):
            m.setattr(presfile, name, never)
        assert main(["verify", str(path), "--profile", "novikov"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("parse error: line 1:")
        assert "budget" in out.err
        # a dimension far past the budget is refused from the number alone
        with pytest.raises(PresFileError, match="budget"):
            parse("space 1000000000000 a\nring Q\n")
    names = " ".join(f"e{i}" for i in range(presfile.MAX_DIM))
    pres = parse(f"space {presfile.MAX_DIM} {names}\nring Q\nmap D\ne0 -> e1\n")
    assert pres.dim == presfile.MAX_DIM


def test_duplicate_rule_counts_only_nonzero_entries():
    # a line that leaves only zeros does not claim its left side
    head = "space 2 e1 e2\nring Q\n"
    blocks = (("product dot", "e1 e1 -> 0", "e1 e1 -> e2 - e2", "e1 e1 -> e2", "e1 e1"),
              ("coproduct delta", "e1 -> 0", "e1 -> e1 (x) e2 - e1 (x) e2", "e1 -> e1 (x) e2",
               "e1"),
              ("map D", "e1 -> 0", "e1 -> e2 - e2", "e1 -> e2", "e1"),
              ("form B", "e1 e2 -> 0", "e1 e2 -> 1 - 1", "e1 e2 -> 3", "e1 e2"))
    for block, zero, cancel, line, lhs in blocks:
        pres = parse(f"{head}{block}\n{zero}\n{cancel}\n{line}\n")
        want = parse(f"{head}{block}\n{line}\n")
        assert emit(pres) == emit(want), block
        assert emit(pres) != emit(parse(f"{head}{block}\n")), block
        # a second nonzero line under the same left side is an error on its own line
        with pytest.raises(PresFileError) as exc:
            parse(f"{head}{block}\n{zero}\n{line}\n{line}\n")
        assert exc.value.lineno == 6
        assert str(exc.value) == f"line 6: duplicate entry for {lhs}"


def test_parse_keeps_every_term_of_a_line():
    pres = parse("space 2 e1 e2\nring Q[q]\n"
                 "product dot\ne1 e2 -> e1 + q*e2 - e1 + e2\n"
                 "coproduct delta\ne2 -> e1 (x) e2 + 2*e1 (x) e2 + e2 (x) e1\n"
                 "map D\ne2 -> e1 + e1\n")
    assert pres.binop("dot").nonzero() == [(0, 1, 1, Scalar(POLY, (F(1), F(1))))]
    assert pres.coop("delta").nonzero() == [(1, 0, 1, Scalar(POLY, (F(3),))),
                                            (1, 1, 0, Scalar(POLY, (F(1),)))]
    assert pres.linmap("D").nonzero() == [(0, 1, Scalar(POLY, (F(2),)))]


def test_keyword_basis_names_round_trip():
    # a line with -> is an entry line, so keywords serve as basis and block names
    words = ("space", "ring", "product", "coproduct", "map", "form", "relement")
    text = (f"space 7 {' '.join(words)}\nring Q[q]\n"
            "product map\nmap ring -> product - q*space\nspace space -> 2*form\n"
            "coproduct coproduct\nring -> ring (x) map + 1/2*relement (x) space\n"
            "map ring\nmap -> map\nspace -> ring + coproduct\n"
            "form form\nproduct relement -> q\n"
            "relement space\nring space -> -1\nspace ring -> 1\n")
    pres = parse(text)
    assert pres.binop("map").entry(4, 1, 2) == Scalar.one(POLY)
    assert pres.linmap("ring").entry(1, 0) == Scalar.one(POLY)
    again = parse(emit(pres))
    assert again == pres and emit(again) == emit(pres)
    assert emit(pres).count(" -> ") == 8
    assert parse("space 2 map e2\nring Q\nproduct dot\nmap map -> e2\n").binop("dot").nonzero() \
        == [(0, 0, 1, Scalar.one(RATIONAL))]
    with pytest.raises(PresFileError, match="^line 3: entry line outside any block$"):
        parse("space 2 map e2\nring Q\nring e2 -> e2\n")


def test_tokenizer_matches_the_character_scan():
    from tokenize_oracle import _tokenize as scan

    from novq.presfile import _tokenize

    # letters and digits in and out of ASCII, spaces the scan skips (tab,
    # no-break, em), every punctuation token and fragment, characters outside it
    alphabet = (list("aqxZ09_'") + ["e1", "é", "ß", "Ω", "²", "٣", "Ⅷ"]
                + [" ", "\t", "\u00a0", "\u2003"]
                + ["(x)", "->", "+", "-", "*", "/", "^", "(", ")", "(x", "x)", ">"]
                + list("!@,.$[]#=<\x00€"))
    rng = random.Random(9)
    for lineno in range(1, 3001):
        line = "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
        try:
            want = scan(line, lineno)
        except PresFileError as exc:
            with pytest.raises(PresFileError) as got:
                _tokenize(line, lineno)
            assert (str(got.value), got.value.lineno) == (str(exc), exc.lineno), line
        else:
            assert _tokenize(line, lineno) == want, line


def test_every_basis_name_the_space_line_accepts_can_be_named_on_an_entry_line():
    # digit strings read as numbers and names outside one token read as no
    # basis vector, so the space line refuses both
    with pytest.raises(PresFileError, match="^line 1: basis name '1' is a number"):
        parse("space 2 1 2\nring Q\nmap D\n1 -> 2\n")
    with pytest.raises(PresFileError, match="^line 1: basis name 'a-b' is a number"):
        parse("space 2 a-b c\nring Q\nmap D\na-b -> c\n")
    alphabet = list("aqxZ09_'") + ["e1", "é", "²", "٣", "Ⅷ", "½"] + list("-+*/^()>!.,")
    rng = random.Random(10)
    accepted = 0
    for _ in range(2000):
        names = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 3))]
        head = f"space {len(names)} {' '.join(names)}\nring Q\n"
        try:
            parse(head)
        except PresFileError:
            continue
        accepted += 1
        pres = parse(head + "map D\n" + "".join(f"{nm} -> {nm}\n" for nm in names))
        one = Scalar.one(RATIONAL)
        assert pres.linmap("D").nonzero() == [(i, i, one) for i in range(len(names))], names
        assert parse(emit(pres)) == pres, names
    assert accepted > 200
