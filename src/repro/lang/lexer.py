"""Lexer for the MF language.

Comments are ``//`` to end of line and ``/* ... */``.  Comments beginning
with ``//!MF!`` are *directive comments* (the paper's compiler-directive
channel); their text is collected and returned alongside the token stream so
that IFPROB profile-feedback directives can be parsed from source.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

from repro.lang.errors import LangError
from repro.lang.tokens import KEYWORDS, MULTI_CHAR_OPS, SINGLE_CHAR_OPS, Token

_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34}

#: ``MULTI_CHAR_OPS`` by first character, longest first within each.
_MULTI_CHAR_OPS_BY_FIRST: Dict[str, List[str]] = {
    first: [op for op in MULTI_CHAR_OPS if op[0] == first]
    for first in {op[0] for op in MULTI_CHAR_OPS}
}


def tokenize(source: str) -> Tuple[List[Token], List[str]]:
    """Tokenize MF source; returns ``(tokens, directive_comments)``.

    The token list always ends with a single ``eof`` token.
    """
    tokens: List[Token] = []
    directives: List[str] = []
    pos = 0
    line = 1
    col = 1
    length = len(source)

    def error(message: str) -> LangError:
        return LangError(message, line, col)

    while pos < length:
        ch = source[pos]

        if ch == "\n":
            pos += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            start = pos
            pos += 1
            while pos < length and source[pos] in " \t\r":
                pos += 1
            col += pos - start
            continue

        if ch == "/" and source.startswith("//", pos):
            end = source.find("\n", pos)
            end = length if end == -1 else end
            text = source[pos:end]
            if text.startswith("//!MF!"):
                directives.append(text[len("//!MF!"):].strip())
            col += end - pos
            pos = end
            continue

        if ch == "/" and source.startswith("/*", pos):
            end = source.find("*/", pos + 2)
            if end == -1:
                raise error("unterminated block comment")
            skipped = source[pos : end + 2]
            newlines = skipped.count("\n")
            if newlines:
                line += newlines
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            pos = end + 2
            continue

        if ch.isdigit():
            start = pos
            if source.startswith("0x", pos) or source.startswith("0X", pos):
                pos += 2
                while pos < length and source[pos] in "0123456789abcdefABCDEF":
                    pos += 1
                if pos == start + 2:
                    raise error("malformed hex literal")
                value = int(source[start:pos], 16)
            else:
                while pos < length and source[pos].isdigit():
                    pos += 1
                value = int(source[start:pos])
            tokens.append(Token("int", value, line, col))
            col += pos - start
            continue

        if ch.isalpha() or ch == "_":
            start = pos
            while pos < length and (source[pos].isalnum() or source[pos] == "_"):
                pos += 1
            text = source[start:pos]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
            col += pos - start
            continue

        if ch == "'":
            start = pos
            pos += 1
            if pos >= length:
                raise error("unterminated character literal")
            if source[pos] == "\\":
                pos += 1
                if pos >= length or source[pos] not in _ESCAPES:
                    raise error("bad escape in character literal")
                value = _ESCAPES[source[pos]]
                pos += 1
            else:
                value = ord(source[pos])
                pos += 1
            if pos >= length or source[pos] != "'":
                raise error("unterminated character literal")
            pos += 1
            tokens.append(Token("int", value, line, col))
            col += pos - start
            continue

        matched = False
        for op in _MULTI_CHAR_OPS_BY_FIRST.get(ch, ()):
            if source.startswith(op, pos):
                tokens.append(Token("op", op, line, col))
                pos += len(op)
                col += len(op)
                matched = True
                break
        if matched:
            continue

        if ch in SINGLE_CHAR_OPS:
            tokens.append(Token("op", ch, line, col))
            pos += 1
            col += 1
            continue

        raise error(f"unexpected character {ch!r}")

    tokens.append(Token("eof", None, line, col))
    return tokens, directives
