"""Modality words and the arrow-term language.

A modality is a finite word over the two modal operators, written here as a
plain string of ``b`` (box, necessity) and ``d`` (diamond, possibility).  The
leftmost letter of the string is the outermost operator, so ``"bd"`` is box
applied to diamond.  Operator *positions* are counted from the right: position
0 is the rightmost (innermost) letter, position ``len(w) - 1`` the leftmost.
The empty word is a legal modality and is written ``e`` in the concrete
syntax.

Arrow terms denote deductions between modalities.  They are built from
identities, indexed generator arrows, applications of the two operator
functors, and composition ``g . f`` (apply ``f`` first).  Every well-formed
term has a unique source and target word, computed by :func:`term_type`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

BOX = "b"
DIA = "d"
LETTERS = (BOX, DIA)

class TermError(Exception):
    """Base class for errors raised by this package."""


class ParseError(TermError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class TypingError(TermError):
    """A term is ill-typed: mismatched composition or bad generator use."""


def check_word(word: str) -> str:
    if word.strip(BOX + DIA):
        raise TermError(f"bad modality word {word!r}: letters must be 'b' or 'd'")
    return word


def word_to_str(word: str) -> str:
    return word if word else "e"


def swap_word(word: str) -> str:
    """Exchange box and diamond throughout."""
    return word.translate(str.maketrans("bd", "db"))


def rev_word(word: str) -> str:
    return word[::-1]


def letter_at(word: str, pos: int) -> str:
    """Letter at operator position ``pos`` (0 = rightmost)."""
    return word[len(word) - 1 - pos]


# Generator typing table: kind -> (source prefix, target prefix).  A generator
# of kind k with index word A has source prefix+A and target prefix+A.
GENERATORS: dict[str, tuple[str, str]] = {
    "eps_box": ("b", ""),
    "eps_dia": ("", "d"),
    "delta_bb": ("b", "bb"),
    "delta_dd": ("dd", "d"),
    "delta_bd": ("d", "bd"),
    "delta_db": ("db", "b"),
    "sigma_bb": ("b", "bb"),
    "sigma_dd": ("dd", "d"),
    "sigma_db": ("d", "db"),
    "sigma_bd": ("bd", "b"),
    "chi_bb": ("bb", "bb"),
    "chi_dd": ("dd", "dd"),
    "chi_db": ("db", "bd"),
    "chi_bd": ("bd", "db"),
}

# Duality: exchange box and diamond and reverse arrows.
DUAL_KIND = {
    "eps_box": "eps_dia",
    "eps_dia": "eps_box",
    "delta_bb": "delta_dd",
    "delta_dd": "delta_bb",
    "delta_bd": "delta_db",
    "delta_db": "delta_bd",
    "chi_bb": "chi_dd",
    "chi_dd": "chi_bb",
    "chi_db": "chi_db",
    "chi_bd": "chi_bd",
    "sigma_db": "sigma_bd",
    "sigma_bd": "sigma_db",
    "sigma_bb": "sigma_dd",
    "sigma_dd": "sigma_bb",
}


@dataclass(frozen=True)
class Id:
    word: str

    def __str__(self) -> str:
        return f"id{{{word_to_str(self.word)}}}"


@dataclass(frozen=True)
class Gen:
    kind: str
    index: str

    def __str__(self) -> str:
        return f"{self.kind}{{{word_to_str(self.index)}}}"


# Equality, hashing, repr and printing of the two inner node types walk the
# term with an explicit stack, so the depth of a term is not bounded by the
# recursion limit.  Equality and repr give what the dataclass methods would;
# the hash is a different number, consistent with equality.


def _term_eq(self, other) -> bool:
    if other.__class__ is not self.__class__:
        return NotImplemented
    stack = [(self, other)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if x.__class__ is not y.__class__:
            return False
        if x.__class__ is App:
            if x.op != y.op:
                return False
            stack.append((x.body, y.body))
        elif x.__class__ is Comp:
            stack.append((x.inner, y.inner))
            stack.append((x.outer, y.outer))
        elif x != y:
            return False
    return True


def _term_hash(self) -> int:
    # The nodes in prefix order, each inner node marked by its class, spell
    # the tree exactly.
    tokens: list = []
    stack = [self]
    while stack:
        t = stack.pop()
        if t.__class__ is App:
            tokens += (App, t.op)
            stack.append(t.body)
        elif t.__class__ is Comp:
            tokens.append(Comp)
            stack += (t.inner, t.outer)
        else:
            tokens.append(t)
    return hash(tuple(tokens))


def _term_repr(self) -> str:
    parts: list[str] = []
    stack: list = [self]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            parts.append(t)
        elif t.__class__ is App:
            parts.append(f"App(op={t.op!r}, body=")
            stack += (")", t.body)
        elif t.__class__ is Comp:
            parts.append("Comp(outer=")
            stack += (")", t.inner, ", inner=", t.outer)
        else:
            parts.append(repr(t))
    return "".join(parts)


def _term_str(self) -> str:
    # Composition chains print right-associated; a composite on the left
    # keeps its parentheses, so printing round-trips to the same tree.
    parts: list[str] = []
    stack: list = [self]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            parts.append(t)
        elif t.__class__ is App:
            parts.append("box(" if t.op == BOX else "dia(")
            stack += (")", t.body)
        elif t.__class__ is Comp:
            stack += (t.inner, " . ")
            if t.outer.__class__ is Comp:
                stack += (")", t.outer, "(")
            else:
                stack.append(t.outer)
        else:
            parts.append(str(t))
    return "".join(parts)


@dataclass(frozen=True, eq=False, repr=False)
class App:
    op: str  # 'b' or 'd'
    body: "ArrowTerm"

    __eq__ = _term_eq
    __hash__ = _term_hash
    __repr__ = _term_repr
    __str__ = _term_str


@dataclass(frozen=True, eq=False, repr=False)
class Comp:
    outer: "ArrowTerm"
    inner: "ArrowTerm"

    __eq__ = _term_eq
    __hash__ = _term_hash
    __repr__ = _term_repr
    __str__ = _term_str


ArrowTerm = Union[Id, Gen, App, Comp]


# ---------------------------------------------------------------------------
# Parsing


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
    """Parse the concrete syntax; printing the result re-parses identically."""
    parser = _Parser(_tokenize(text), len(text))
    term = parser.parse_term()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return term


def term_to_str(term: ArrowTerm) -> str:
    return str(term)


# ---------------------------------------------------------------------------
# Structural operations


def map_term(term: ArrowTerm,
             leaf: Callable[[ArrowTerm, str], ArrowTerm],
             app: Callable[[str, ArrowTerm], ArrowTerm] = App,
             comp: Callable[[ArrowTerm, ArrowTerm], ArrowTerm] = Comp,
             ) -> ArrowTerm:
    """Rebuild a term bottom-up, without recursion.

    Each identity or generator ``t`` becomes ``leaf(t, prefix)``, where
    ``prefix`` holds the operator letters applied above it, outermost first;
    each application becomes ``app(op, body)`` and each composite
    ``comp(outer, inner)`` of the rebuilt parts.  The outer part of a
    composite is visited before the inner one.
    """
    values: list[ArrowTerm] = []
    stack: list[tuple[ArrowTerm, str, bool]] = [(term, "", False)]
    while stack:
        t, prefix, ready = stack.pop()
        if isinstance(t, App):
            if ready:
                values.append(app(t.op, values.pop()))
            else:
                stack += ((t, prefix, True), (t.body, prefix + t.op, False))
        elif isinstance(t, Comp):
            if ready:
                inner = values.pop()
                values.append(comp(values.pop(), inner))
            else:
                stack += ((t, prefix, True), (t.inner, prefix, False),
                          (t.outer, prefix, False))
        else:
            values.append(leaf(t, prefix))
    return values[0]


def append_context(term: ArrowTerm, ctx: str) -> ArrowTerm:
    """Append ``ctx`` on the right of every index word.

    This is the right-append functor: identities on A become identities on
    A+ctx, generator indices grow by ctx, and the operation commutes with
    application and composition.
    """
    check_word(ctx)
    if not ctx:
        return term

    def leaf(t: ArrowTerm, _prefix: str) -> ArrowTerm:
        if isinstance(t, Id):
            return Id(t.word + ctx)
        return Gen(t.kind, t.index + ctx)

    return map_term(term, leaf)


def dualize(term: ArrowTerm) -> ArrowTerm:
    """Form the opposite term: swap box/diamond, dual generators, reversed
    composition.  The result has type (swap(tgt), swap(src))."""
    def leaf(t: ArrowTerm, _prefix: str) -> ArrowTerm:
        if isinstance(t, Id):
            return Id(swap_word(t.word))
        return Gen(DUAL_KIND[t.kind], swap_word(t.index))

    return map_term(term, leaf, lambda op, body: App(swap_word(op), body),
                    lambda outer, inner: Comp(inner, outer))


# ---------------------------------------------------------------------------
# Factor (spine) form.  A factor is a single generator under a stack of
# operator applications; every term equals a composite of factors by the
# categorial and functorial equations.


@dataclass(frozen=True)
class Factor:
    prefix: str  # operator letters applied outside the generator
    kind: str
    index: str

    @property
    def src(self) -> str:
        return self.prefix + GENERATORS[self.kind][0] + self.index

    @property
    def tgt(self) -> str:
        return self.prefix + GENERATORS[self.kind][1] + self.index

    def to_term(self) -> ArrowTerm:
        term: ArrowTerm = Gen(self.kind, self.index)
        for op in reversed(self.prefix):
            term = App(op, term)
        return term


def term_factors(term: ArrowTerm) -> tuple[str, str, list[Factor]]:
    """Walk a term once, without recursion: its source word, its target word
    and its factors in application order.

    The walk checks every word and every composition.  A composite is
    well-typed exactly when each leaf (a generator or an identity, under its
    operator prefix) starts where the leaf applied before it ends, so the
    leaves are compared in the order they apply.
    """
    factors: list[Factor] = []
    src = tgt = None
    stack: list[tuple[ArrowTerm, str]] = [(term, "")]
    while stack:
        t, prefix = stack.pop()
        if isinstance(t, Comp):
            stack.append((t.outer, prefix))
            stack.append((t.inner, prefix))
            continue
        if isinstance(t, App):
            if t.op not in LETTERS:
                raise TermError(f"bad operator {t.op!r}: must be 'b' or 'd'")
            stack.append((t.body, prefix + t.op))
            continue
        if isinstance(t, Gen):
            if t.kind not in GENERATORS:
                raise TypingError(f"unknown generator kind {t.kind!r}")
            src_pre, tgt_pre = GENERATORS[t.kind]
            index = check_word(t.index)
            leaf_src = prefix + src_pre + index
            leaf_tgt = prefix + tgt_pre + index
            factors.append(Factor(prefix, t.kind, index))
        elif isinstance(t, Id):
            leaf_src = leaf_tgt = prefix + check_word(t.word)
        else:
            raise TermError(f"not an arrow term: {t!r}")
        if tgt is None:
            src = leaf_src
        elif tgt != leaf_src:
            raise TypingError(
                "composition mismatch: inner target "
                f"{word_to_str(tgt)} != outer source {word_to_str(leaf_src)}")
        tgt = leaf_tgt
    return src, tgt, factors


def chain_target(src: str, factors: Iterable[Factor]) -> str:
    """Target word of factors applied in order from ``src``.

    Checks what :func:`term_factors` checks on the term the factors spell:
    every kind and word, and that each factor starts where the factor
    applied before it ends.
    """
    word = check_word(src)
    for factor in factors:
        if factor.kind not in GENERATORS:
            raise TypingError(f"unknown generator kind {factor.kind!r}")
        check_word(factor.prefix)
        check_word(factor.index)
        if factor.src != word:
            raise TypingError(
                "composition mismatch: inner target "
                f"{word_to_str(word)} != outer source {word_to_str(factor.src)}")
        word = factor.tgt
    return word


def term_type(term: ArrowTerm) -> tuple[str, str]:
    """Source and target word of a term; raises TypingError on a mismatch."""
    src, tgt, _ = term_factors(term)
    return src, tgt


def term_size(term: ArrowTerm) -> int:
    """Number of generator occurrences."""
    return len(term_factors(term)[2])


def factors_to_term(src: str, factors: list[Factor]) -> ArrowTerm:
    """Rebuild a term from factors; the empty list gives the identity."""
    if not factors:
        return Id(src)
    term: ArrowTerm = factors[0].to_term()
    for factor in factors[1:]:
        term = Comp(factor.to_term(), term)
    return term
