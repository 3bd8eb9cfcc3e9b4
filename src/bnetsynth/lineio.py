"""Shared plumbing for the line-oriented file formats.

Every format is a sequence of lines; `#` starts a comment that runs to the
end of the line, blank lines are skipped, and the first meaningful line must
be `.model <kind>`. Identifiers are restricted to [A-Za-z0-9_.+-]+ so files
stay whitespace-splittable.
"""

from __future__ import annotations

import re

_IDENT = re.compile(r"[A-Za-z0-9_.+-]+\Z")


class ParseError(ValueError):
    pass


def check_ident(token: str, what: str) -> str:
    if not _IDENT.match(token):
        raise ParseError(f"bad {what} {token!r}: identifiers match [A-Za-z0-9_.+-]+")
    return token


def tokenize(text: str) -> list[tuple[int, list[str]]]:
    """Split text into (line number, tokens) pairs, dropping comments/blanks."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        out.append((lineno, line.split()))
    return out


def expect_model(lines: list[tuple[int, list[str]]], kind: str) -> None:
    if not lines:
        raise ParseError(f"empty file, expected '.model {kind}'")
    lineno, toks = lines[0]
    if toks != [".model", kind]:
        raise ParseError(f"line {lineno}: expected '.model {kind}', got {' '.join(toks)!r}")
