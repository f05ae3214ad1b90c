"""Seeded fuzzing of the parser and every subcommand: exit codes stay 0, 1 or 2.

Fixture texts are mutated (byte deletions and insertions, token swaps,
dropped and repeated lines, huge and over-long numbers) and each mutant is
run in-process through ``novq.cli.main`` by one of the seven subcommands.
An induce or double file may instead be a fixture with every map entry
scaled by a number under the digit budget whose products are past it, and
--json-out may name a path that cannot be written.  No exception may
escape, whatever the input.
"""

import contextlib
import io
import random
import re
from pathlib import Path

from novq.cli import main
from novq.presfile import BLOCKS

FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").iterdir())
NOISE = ["0", "1", "7", "-", "+", "*", "/", "^", "(", ")", "(x)", "->", "q", " ", "\n",
         "#", "e1", "e2", "a", "b", "ring Q[q]\n", "space 1 e1\n", "map D\n",
         "coproduct delta\n", "product dot\n", "²", "\x00"]
BIG = "7" * 4000  # under the digit budget; a product of two is past it
HUGE = ["10" * 20, "9" * 60, "9" * 5000, "3^4095", "(1/3)^2000", "q^4000", "0/1",
        "1/0", "0"]


def _mutate(rng, text):
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        kind = rng.randrange(6)
        if kind == 0 and text:  # delete a run of bytes
            i = rng.randrange(len(text))
            text = text[:i] + text[i + rng.randint(1, 8):]
        elif kind == 1:  # insert a token or a byte
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(NOISE) + text[i:]
        elif kind == 2:  # swap two tokens of one line
            lines = text.split("\n")
            k = rng.randrange(len(lines))
            toks = lines[k].split(" ")
            i, j = rng.randrange(len(toks)), rng.randrange(len(toks))
            toks[i], toks[j] = toks[j], toks[i]
            lines[k] = " ".join(toks)
            text = "\n".join(lines)
        elif kind == 3:  # replace a number by a huge or degenerate one
            spots = [i for i, ch in enumerate(text) if ch.isdigit()]
            if spots:
                i = rng.choice(spots)
                text = text[:i] + rng.choice(HUGE) + text[i + 1:]
        else:  # drop or repeat a line
            lines = text.split("\n")
            i = rng.randrange(len(lines))
            if kind == 4:
                del lines[i]
            else:
                lines.insert(i, lines[i])
            text = "\n".join(lines)
    return text


def _scale_maps(text, factor):
    """Every term right of "->" in a map block times factor; scaling D and Q alike keeps
    the identities that induce and double require."""
    lines, in_map = text.split("\n"), False
    for k, line in enumerate(lines):
        word = line.split(" ", 1)[0]
        if word in BLOCKS:
            in_map = word == "map"
        elif in_map and "->" in line:
            left, right = line.split("->", 1)
            right = re.sub(r"^-?|[+-] *", lambda m: m.group() + factor + "*", right.strip())
            lines[k] = f"{left}-> {right}"
    return "\n".join(lines)


def _argv(rng, path, json_path):
    command = rng.choice(["verify", "induce", "double", "ybe", "locus", "window",
                          "polywindow"])
    if command == "verify":
        argv = [command, path, "--profile",
                rng.choice(["novikov", "zinbiel", "diff-asi", "novikov-bialgebra",
                            "manin", "quadratic"])]
        if rng.random() < 0.3:
            argv += ["--dimA", str(rng.randint(-1, 4))]
    elif command == "induce":
        argv = [command, path, "--q", rng.choice(["sym", "-1/2", "0", "3", "1/0", "x", BIG])]
    elif command == "ybe":
        argv = [command, path, "--check", rng.choice(["aybe", "nybe", "admissible"])]
    elif command == "window":
        lo = rng.randint(-2, 1)
        argv = [command, path, "--q", rng.choice(["-1/2", "0", "2"]),
                "--min", str(lo), "--max", str(lo + rng.randint(-1, 1))]
    elif command == "polywindow":
        argv = [command, "--N", str(rng.choice([-1, 0, 1, 2, 3, 25, 10 ** 12])),
                "--q", rng.choice(["sym", "0", "-1/2", "1/0"])]
    else:
        argv = [command, path]
    if rng.random() < 0.3:
        argv += ["--json-out", json_path if rng.random() < 0.7
                 else str(Path(json_path).parent / "missing" / "out.json")]
    return argv


def test_mutated_fixtures_keep_the_exit_code_contract(tmp_path):
    rng = random.Random(5)
    texts = [p.read_text(encoding="utf-8") for p in FIXTURES]
    path, json_path = str(tmp_path / "mutant"), str(tmp_path / "out.json")
    for case in range(200):
        text = rng.choice(texts)
        argv = _argv(rng, path, json_path)
        if argv[0] in ("induce", "double") and rng.random() < 0.3:
            text = _scale_maps(text, BIG)  # a well-formed file with huge coefficients
        else:
            text = _mutate(rng, text)
        Path(path).write_text(text, encoding="utf-8")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(argv)
            except Exception as e:  # any escape is the failure; show the mutant
                raise AssertionError(f"case {case}: {argv} raised {e!r} on\n{text}") from e
        assert code in (0, 1, 2), (case, argv, code, text)
