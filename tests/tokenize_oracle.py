"""The presentation-file tokenizer as a character-by-character scan, kept as an oracle.

This is the body ``presfile._tokenize`` had before it became one compiled
pattern.  ``_tokenize(line, lineno)`` must give the same tokens as the
pattern, or raise the same ``PresFileError``.
"""

from novq.presfile import PresFileError

_PUNCT = ("(x)", "->", "+", "-", "*", "/", "^", "(", ")")


def _tokenize(line: str, lineno: int) -> list[str]:
    toks = []
    i = 0
    while i < len(line):
        ch = line[i]
        if ch.isspace():
            i += 1
            continue
        for p in _PUNCT:
            if line.startswith(p, i):
                toks.append(p)
                i += len(p)
                break
        else:
            j = i
            while j < len(line) and (line[j].isalnum() or line[j] in "_'"):
                j += 1
            if j == i:
                raise PresFileError(lineno, f"unexpected character {ch!r}")
            toks.append(line[i:j])
            i = j
    return toks
