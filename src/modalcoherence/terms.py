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

The concrete syntax, in EBNF, where ``ws`` is a possibly empty run of
whitespace and a generator name is a key of :data:`GENERATORS`::

    term   = ws, chain, ws ;
    chain  = item, { ws, ".", ws, item } ;
    item   = [ ( "box" | "dia" ), ws ], "(", ws, chain, ws, ")"
           | ( "id" | generator name ), ws, "{", ws, word, ws, "}" ;
    word   = "e" | letter, { letter } ;
    letter = "b" | "d" ;

``e`` is the empty word.  Composition groups to the right: ``h . g . f``
is ``h . (g . f)``.  A name is read whole, up to the first character that
is not a letter, digit or underscore, so ``boxid{e}`` names nothing.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Union

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

# The mirror: reverse every word, exchanging each generator of s5 with its
# counterpart in fives (the counits are their own images).
MIRROR_KIND = {
    "eps_box": "eps_box",
    "eps_dia": "eps_dia",
    "delta_bb": "sigma_bb",
    "sigma_bb": "delta_bb",
    "delta_dd": "sigma_dd",
    "sigma_dd": "delta_dd",
    "delta_bd": "sigma_db",
    "sigma_db": "delta_bd",
    "delta_db": "sigma_bd",
    "sigma_bd": "delta_db",
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


class _Part:
    """One part of a composite, ``outer`` or ``inner``, read through the
    class.  A composite built whole holds both parts itself, and those are
    found first.  A root that parse_term left unbuilt holds its checked text
    instead; its two parts are built from it on the first read of either.
    A ``Comp.__getattr__`` could do the same, but it makes every attribute
    read of every composite several times slower.
    """

    def __init__(self, name: str):
        self.name = name

    def __get__(self, term: Optional[Comp], owner: Optional[type] = None):
        if term is None:
            return self
        text = term.__dict__.get("_text")
        if text is None:
            raise AttributeError(
                f"'Comp' object has no attribute {self.name!r}")
        built = _build(_leaves(text))
        term.__dict__.update(outer=built.outer, inner=built.inner)
        return term.__dict__[self.name]


# Set after the dataclass is made, so that they are not taken for defaults.
Comp.outer = _Part("outer")
Comp.inner = _Part("inner")


ArrowTerm = Union[Id, Gen, App, Comp]


# ---------------------------------------------------------------------------
# Parsing


# One match per leaf: the run of wrappers opened before it (``box(``,
# ``dia(`` or a bare ``(``), its name and ``{index}``, the run of ``)`` after
# it and an optional ``.``.  Every part is optional, so the pattern matches
# at every position.  Nothing after a part can fail, so each part takes its
# longest run and never gives any of it back: the possessive quantifiers
# only spare the engine the backtracking points it would never use.
# Python 3.10 has none, and its plain ones find the same matches.
_LEAF_PATTERN = r"""
    ((?:\s*+(?:(?:box|dia)\s*+)?\()*+)     # wrappers
    \s*+([^\W\d]\w*+)?                     # name
    (?:\s*+\{([^}]*+)\})?                  # index
    ((?:\s*+\))*+)                         # closers
    \s*+(\.)?                              # separator
"""
if sys.version_info < (3, 11):
    _LEAF_PATTERN = _LEAF_PATTERN.replace("*+", "*")
_LEAF = re.compile(_LEAF_PATTERN, re.VERBOSE)
_NAME = re.compile(r"\w+")
_LEAF_NAMES = frozenset(GENERATORS) | {"id"}
_END = ("", "", "", "", "")  # the row findall gives for the empty match


def _token(text: str, pos: int) -> tuple[str, str, int]:
    """Kind, value and position of the first token at or after ``pos``.

    Raises at the end of the input, at an unclosed ``{`` and at a character
    that starts no token.
    """
    at = len(text) - len(text[pos:].lstrip())
    if at == len(text):
        raise ParseError("unexpected end of input", at)
    c = text[at]
    if c in "().":
        return c, c, at
    if c == "{":
        end = text.find("}", at)
        if end < 0:
            raise ParseError("unclosed '{'", at)
        return "mod", text[at + 1:end].strip(), at
    if c.isalpha() or c == "_":
        return "name", _NAME.match(text, at).group(), at
    raise ParseError(f"unexpected character {c!r}", at)


def _leaf_error(text: str, match: re.Match) -> ParseError:
    """The error for a match of _LEAF that holds no name and index."""
    kind, value, at = _token(text, match.end(1))
    if kind != "name":
        return ParseError(f"expected a term, got {value!r}", at)
    if value in ("box", "dia"):
        return ParseError(f"expected '(' after {value}",
                          _token(text, at + 3)[2])
    if value not in _LEAF_NAMES:
        return ParseError(f"unknown generator name {value!r}", at)
    return ParseError("expected '{modality}'", _token(text, at + len(value))[2])


def _leaves(text: str) -> list[tuple[str, str, str, int]]:
    """Check a text and read its leaves, in text order.

    One findall of _LEAF gives a row per leaf and one empty row at the end;
    the rows follow each other, since each leaf row is a nonempty match.
    Returns, per leaf, its wrappers outermost first (the operator letter
    for ``box(`` or ``dia(``, "(" for a bare parenthesis), its name and
    index word, and the number of ``)`` after it.  A text with a fault
    raises the ParseError that :func:`_fault` finds.
    """
    rows = _LEAF.findall(text)
    end = rows.pop()
    leaves = []
    depth = 1  # the chains open, the whole input included
    for opens, name, index, closes, dot in rows:
        if name not in _LEAF_NAMES or not index:
            break
        word = index.strip()
        if word == "e":
            word = ""
        elif not word or word.strip(BOX + DIA):
            break
        wrappers = "".join(opens.split()).replace("box(", BOX).replace(
            "dia(", DIA) if opens else ""
        closing = closes.count(")")
        depth += len(wrappers) - closing
        if depth < 1:  # a ')' past the input
            break
        leaves.append((wrappers, name, word, closing))
        if not dot:
            if depth == 1 and end == _END and len(leaves) == len(rows):
                return leaves
            break
    raise _fault(text)


def _fault(text: str) -> ParseError:
    """The error of a text that _leaves rejects: the first fault met when
    the text is read again from the start, one _LEAF match per leaf, at
    the leaf where it shows or after the last leaf.  Each match starts
    where the one before it ended, so the rescan stays linear."""
    depth = 1
    pos = 0
    while True:
        match = _LEAF.match(text, pos)
        opens, name, index, closes, dot = match.groups()
        if index is None or name not in _LEAF_NAMES:
            return _leaf_error(text, match)
        word = index.strip()
        if word != "e" and (not word or word.strip(BOX + DIA)):
            return ParseError(f"bad modality {word!r} (use 'e' or letters b/d)",
                              match.start(3) - 1)
        wrappers = opens.count("(")
        closing = closes.count(")")
        if closing >= wrappers + depth:  # a ')' past the input
            skip = ")".join(closes.split(")")[:wrappers + depth])
            return ParseError("trailing input ')'", match.start(4) + len(skip))
        depth += wrappers - closing
        if dot is None:
            break
        pos = match.end()
    if depth > 1:
        return ParseError("expected ')'", _token(text, match.end())[2])
    if match.end() < len(text):
        _, value, at = _token(text, match.end())
        return ParseError(f"trailing input {value!r}", at)
    raise AssertionError(f"the lexer rejected a text of {len(text)} "
                         "characters that its rescan accepts")


def _chain(atoms: list[ArrowTerm]) -> ArrowTerm:
    term = atoms.pop()
    while atoms:  # '.' is right-associative
        term = Comp(atoms.pop(), term)
    return term


def _build(leaves: list[tuple[str, str, str, int]]) -> ArrowTerm:
    """The tree of a text's leaves.  The wrappers that a leaf's own row
    closes apply to it at once; the chains still open are kept on an
    explicit stack, so the nesting depth is not bounded by the recursion
    limit."""
    # (wrapper, atoms) per open chain: the wrapper is None for the whole
    # input, "(" inside parentheses and the operator letter inside
    # box(...) or dia(...).
    chains: list[tuple[Optional[str], list[ArrowTerm]]] = [(None, [])]
    for wrappers, name, word, closing in leaves:
        term = Id(word) if name == "id" else Gen(name, word)
        shut = min(closing, len(wrappers))
        for wrapper in reversed(wrappers[len(wrappers) - shut:]):
            if wrapper != "(":
                term = App(wrapper, term)
        for wrapper in wrappers[:len(wrappers) - shut]:
            chains.append((wrapper, []))
        for _ in range(closing - shut):
            wrapper, atoms = chains.pop()
            atoms.append(term)
            term = _chain(atoms)
            if wrapper != "(":
                term = App(wrapper, term)
        chains[-1][1].append(term)
    return _chain(chains[0][1])


def parse_term(text: str) -> ArrowTerm:
    """Parse the concrete syntax; printing the result re-parses identically.

    :func:`_leaves` checks the text, and one pass over its leaves computes
    its spine, the triple :func:`term_factors` returns, which the root
    carries.  A leaf's prefix
    is the operator letters still open around it, and the leaves apply in
    reverse text order, so each leaf must end where the leaf before it in
    the text starts.  A text with a composition mismatch carries no spine,
    and :func:`term_factors` walks its tree to report the mismatch.

    When the text is a chain at top level, the root is a :class:`Comp`
    whose two parts are built from the checked text when either is first
    read; a caller that reads only the spine never builds the tree.
    """
    # The prefix of each open chain extends the prefix of the chain around
    # it, so the innermost one is kept whole and the others by length.
    lengths = [0]  # the prefix length of each open chain
    open_prefix = ""  # the prefix of the innermost open chain
    factors: list[Factor] = []  # in text order
    tgt = need = None  # the target, and the source of the leaf before
    typed = True
    items = 0  # at top level
    leaves = _leaves(text)
    for wrappers, name, word, closing in leaves:
        # The outermost ``opened`` wrappers open chains; the others close
        # after the leaf, as do ``-opened`` chains already open.
        opened = len(wrappers) - closing
        if opened > 0:
            length = len(open_prefix)
            for wrapper in wrappers[:opened]:
                length += wrapper != "("
                lengths.append(length)
            open_prefix += wrappers[:opened].replace("(", "")
            wrappers = wrappers[opened:]
        prefix = open_prefix + wrappers.replace("(", "")
        if opened < 0:
            del lengths[opened:]
            open_prefix = open_prefix[:lengths[-1]]
        if len(lengths) == 1:
            items += 1
        if name == "id":
            leaf_src = leaf_tgt = prefix + word
        else:
            src_pre, tgt_pre = GENERATORS[name]
            leaf_src = prefix + src_pre + word
            leaf_tgt = prefix + tgt_pre + word
            factors.append(Factor(prefix, name, word))
        if need is None:
            tgt = leaf_tgt
        elif need != leaf_tgt:
            typed = False
        need = leaf_src
    if items > 1:
        root = Comp.__new__(Comp)
        root.__dict__["_text"] = text
    else:
        root = _build(leaves)
    if typed:
        factors.reverse()
        root.__dict__["_spine"] = (need, tgt, tuple(factors))
    return root


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


class Factor(NamedTuple):
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
    and its factors in application order.  A parsed term carries these
    from the parse, and a copy of them is returned.

    The walk checks every word and every composition.  A composite is
    well-typed exactly when each leaf (a generator or an identity, under its
    operator prefix) starts where the leaf applied before it ends, so the
    leaves are compared in the order they apply.
    """
    spine = getattr(term, "_spine", None)
    if spine is not None:
        return spine[0], spine[1], list(spine[2])
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


def mirror_factor(factor: Factor) -> Factor:
    """The mirror image of a factor: its prefix and index exchange places,
    each reversed, and its kind is exchanged by :data:`MIRROR_KIND`."""
    return Factor(factor.index[::-1], MIRROR_KIND[factor.kind],
                  factor.prefix[::-1])


def dual_factors(factors: list[Factor]) -> list[Factor]:
    """The factors of the dual (:func:`dualize`) of the term that ``factors``
    spell: the dual factors in reverse order, every word letter-swapped."""
    return [Factor(swap_word(f.prefix), DUAL_KIND[f.kind], swap_word(f.index))
            for f in reversed(factors)]
