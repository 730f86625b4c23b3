"""Reference parser for the term language, independent of
``terms.parse_term``: a character tokenizer and a token-list parser that
keeps the open chains on an explicit stack.  Tests compare the library's
parser against this one.
"""

from typing import Optional

from modalcoherence.terms import (
    BOX,
    DIA,
    GENERATORS,
    LETTERS,
    App,
    ArrowTerm,
    Comp,
    Gen,
    Id,
    ParseError,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "().":
            tokens.append((c, c, i))
            i += 1
            continue
        if c == "{":
            j = text.find("}", i)
            if j < 0:
                raise ParseError("unclosed '{'", i)
            tokens.append(("mod", text[i + 1 : j].strip(), i))
            i = j + 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    return tokens


def _parse_mod(tok: tuple[str, str, int]) -> str:
    kind, value, pos = tok
    if kind != "mod":
        raise ParseError("expected '{modality}'", pos)
    if value == "e":
        return ""
    if value and all(c in LETTERS for c in value):
        return value
    raise ParseError(f"bad modality {value!r} (use 'e' or letters b/d)", pos)


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], length: int):
        self.tokens = tokens
        self.pos = 0
        self.length = length

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        self.pos += 1
        return tok

    def parse_term(self) -> ArrowTerm:
        """Parse a '.' chain.  The chains still open inside parentheses and
        operator applications are kept on an explicit stack, so the nesting
        depth is not bounded by the recursion limit."""
        # (wrapper, atoms) per open chain: the wrapper is None for the whole
        # input, "" inside parentheses and the operator letter inside
        # box(...) or dia(...).
        chains: list[tuple[Optional[str], list[ArrowTerm]]] = [(None, [])]
        while True:
            kind, value, pos = self.next()
            if kind == "(":
                chains.append(("", []))
                continue
            if kind == "name" and value in ("box", "dia"):
                opening = self.next()
                if opening[0] != "(":
                    raise ParseError(f"expected '(' after {value}", opening[2])
                chains.append((BOX if value == "box" else DIA, []))
                continue
            term = self.parse_leaf(kind, value, pos)
            while True:
                wrapper, atoms = chains[-1]
                atoms.append(term)
                tok = self.peek()
                if tok is not None and tok[0] == ".":
                    self.next()
                    break
                term = atoms.pop()
                while atoms:  # '.' is right-associative
                    term = Comp(atoms.pop(), term)
                if wrapper is None:
                    return term
                chains.pop()
                closing = self.next()
                if closing[0] != ")":
                    raise ParseError("expected ')'", closing[2])
                if wrapper:
                    term = App(wrapper, term)

    def parse_leaf(self, kind: str, value: str, pos: int) -> ArrowTerm:
        if kind != "name":
            raise ParseError(f"expected a term, got {value!r}", pos)
        if value == "id":
            return Id(_parse_mod(self.next()))
        if value in GENERATORS:
            return Gen(value, _parse_mod(self.next()))
        raise ParseError(f"unknown generator name {value!r}", pos)


def parse_term(text: str) -> ArrowTerm:
    """Parse the concrete syntax into the same tree as ``terms.parse_term``."""
    parser = _Parser(_tokenize(text), len(text))
    term = parser.parse_term()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return term
