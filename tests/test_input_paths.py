"""Inputs that reach a parser or command-line branch no other test reaches."""

from pathlib import Path

import pytest

from novq import POLY, PresFileError, parse
from novq.cli import main

EXNOV1 = Path(__file__).resolve().parent.parent / "fixtures" / "exnov1"


def test_a_block_name_is_checked_against_the_open_block_too(tmp_path, capsys):
    # the block right before is still open when the next block line is read
    path = tmp_path / "dup"
    for text, lineno in (("space 1 e\nring Q\nproduct a\ne e -> e\nproduct a\ne e -> 2*e\n", 5),
                         ("space 1 e\nring Q\nproduct a\nmap a\ne -> e\n", 4),
                         ("space 1 e\nring Q\nproduct a\nmap D\nform a\n", 5)):
        path.write_text(text)
        assert main(["verify", str(path), "--profile", "novikov"]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"parse error: line {lineno}: duplicate name 'a'\n")


def test_header_lines_and_block_names_are_checked():
    header = "space line needs a dimension and basis names"
    for text, msg in (("space 1 e\nspace 1 e\nring Q\n", "line 2: duplicate space line"),
                      ("space 1\nring Q\n", f"line 1: {header}"),
                      ("space x e\nring Q\n", f"line 1: {header}"),
                      ("space 1 e\nring Q\nmap q\n",
                       "line 3: the name q is reserved for the parameter")):
        with pytest.raises(PresFileError) as exc:
            parse(text)
        assert str(exc.value) == msg, text


def test_induce_at_a_point_of_a_symbolic_file_prints_what_the_rational_file_gives(tmp_path,
                                                                                   capsys):
    sym = tmp_path / "exnov1-symbolic"
    sym.write_text(EXNOV1.read_text().replace("ring Q\n", "ring Q[q]\n"))
    assert parse(sym.read_text()).ring == POLY
    outs = []
    for path in (str(EXNOV1), str(sym)):
        assert main(["induce", path, "--q", "-1/2"]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1] and outs[0].err == "" and "ring Q\n" in outs[0].out


def test_usage_errors_name_what_the_file_lacks(tmp_path, capsys):
    two = tmp_path / "two"
    two.write_text("space 1 e\nring Q\nproduct a\ne e -> e\nproduct b\ne e -> e\n"
                   "relement r\ne e -> 1\n")
    sym = tmp_path / "sym"
    sym.write_text(EXNOV1.read_text().replace("ring Q\n", "ring Q[q]\n"))
    for argv, err in (
            (["verify", str(two), "--profile", "novikov"],
             "cannot choose a product among a, b; name one 'circ'"),
            (["ybe", str(two), "--r", "s", "--check", "aybe"], "no r-element named 's'"),
            (["window", str(sym), "--q", "-1/2", "--min", "0", "--max", "1"],
             "window checks want a rational presentation; induce first")):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"usage error: {err}\n")
