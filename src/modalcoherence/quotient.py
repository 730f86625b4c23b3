"""The collapse quotients: word normalization, the conjugating isomorphism
arrows, the conjugated functor, the preorder skeletons, and the catalog of
preordering equations.

The sharp quotients identify each repeated operator with a single occurrence
(box-box with box, diamond-diamond with diamond); equality there is decided
by conjugating with the canonical isomorphisms and comparing images under the
base functor.  Adjoining the box/diamond commutation equation on top of sharp
collapses each theory to a preorder, whose skeleton is a fixed finite
diagram.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import diagram as dg
from .schemas import get_schema, instantiate
from .terms import (
    App,
    ArrowTerm,
    BOX,
    Comp,
    DIA,
    Factor,
    Gen,
    Id,
    TermError,
    chain_target,
    check_word,
    factors_to_term,
    parse_term,
    word_to_str,
)
from .theories import SHARP, Theory, get_theory, typecheck, typed_factors


def sharp(word: str) -> str:
    """Collapse adjacent equal operators; the result alternates."""
    check_word(word)
    out: list[str] = []
    for c in word:
        if not out or out[-1] != c:
            out.append(c)
    return "".join(out)


# Each collapse arrow is built one letter at a time, from the left: where a
# letter differs from the next one it stays as an operator around the rest;
# where the two are equal, a generator (kind, offset of its index word) removes
# or restores the repeat.
_COLLAPSE = {BOX: ("eps_box", 1), DIA: ("delta_dd", 2)}
_EXPAND = {BOX: ("delta_bb", 2), DIA: ("eps_dia", 1)}


def _collapse_term(word: str, table: dict, gen_first: bool) -> ArrowTerm:
    check_word(word)
    if not word:
        raise TermError("the collapse arrows are defined for nonempty words")
    term: ArrowTerm = Id(word[-1])
    for k in reversed(range(len(word) - 1)):
        if word[k] != word[k + 1]:
            term = App(word[k], term)
            continue
        kind, offset = table[word[k]]
        gen = Gen(kind, word[k + offset:])
        term = Comp(term, gen) if gen_first else Comp(gen, term)
    return term


def _collapse_factors(word: str, table: dict) -> list[Factor]:
    """The generators of :func:`_collapse_term`, outermost letter first,
    each under the operators kept to its left."""
    prefix = ""
    factors = []
    for k in range(len(word) - 1):
        if word[k] != word[k + 1]:
            prefix += word[k]
        else:
            kind, offset = table[word[k]]
            factors.append(Factor(prefix, kind, word[k + offset:]))
    return factors


def j_arrow(word: str) -> ArrowTerm:
    """The canonical arrow from a word to its collapsed form."""
    return _collapse_term(word, _COLLAPSE, gen_first=True)


def j_inv(word: str) -> ArrowTerm:
    """The canonical arrow from the collapsed form back to the word."""
    return _collapse_term(word, _EXPAND, gen_first=False)


def j_inv_factors(word: str) -> list[Factor]:
    """The factors of :func:`j_inv`, in application order."""
    return _collapse_factors(word, _EXPAND)[::-1]


def j_arrow_factors(word: str) -> list[Factor]:
    """The factors of :func:`j_arrow`, in application order."""
    return _collapse_factors(word, _COLLAPSE)


def interp_sharp(theory: "Theory | str", term: ArrowTerm) -> dg.RelDiagram:
    """Image under the conjugated functor: collapse both endpoints with the
    canonical isomorphisms, then interpret in the base theory."""
    from .interp import SHARP_VARIANT, _image

    theory = get_theory(theory)
    if theory.quotient != SHARP:
        raise TermError(f"theory {theory.id} is not a sharp quotient")
    return _image(theory, SHARP_VARIANT, *typed_factors(term, theory.base))


# ---------------------------------------------------------------------------
# Skeletons of the preorder quotients


@dataclass(frozen=True)
class SkeletonArrow:
    src: str
    tgt: str
    label: ArrowTerm


@dataclass(frozen=True)
class SkeletonDiagram:
    theory_id: str
    objects: tuple[str, ...]
    arrows: tuple[SkeletonArrow, ...]

    def reachability(self) -> dict[tuple[str, str], bool]:
        """Reflexive-transitive closure of the arrows."""
        reach = {(a, b): a == b for a in self.objects for b in self.objects}
        for arrow in self.arrows:
            reach[(arrow.src, arrow.tgt)] = True
        for mid in self.objects:
            for a in self.objects:
                for b in self.objects:
                    if reach[(a, mid)] and reach[(mid, b)]:
                        reach[(a, b)] = True
        return reach

    def reaches(self, src: str) -> set[str]:
        reach = self.reachability()
        return {b for b in self.objects if reach[(src, b)]}

    def to_json(self) -> str:
        import json

        return json.dumps({
            "theory": self.theory_id,
            "objects": [word_to_str(w) for w in self.objects],
            "arrows": [{"src": word_to_str(a.src), "tgt": word_to_str(a.tgt),
                        "term": str(a.label)} for a in self.arrows],
        })


def _parse_all(entries: list[tuple[str, str, str]]) -> tuple[SkeletonArrow, ...]:
    return tuple(SkeletonArrow(src, tgt, parse_term(text))
                 for src, tgt, text in entries)


_SKELETONS = {
    "s4_boxdia_triv": (
        ("b", "bdb", "db", "bd", "dbd", "d", ""),
        [
            ("b", "bdb", "box(eps_dia{b}) . delta_bb{e}"),
            ("bdb", "db", "eps_box{db}"),
            ("bdb", "bd", "box(dia(eps_box{e}))"),
            ("db", "dbd", "dia(box(eps_dia{e}))"),
            ("bd", "dbd", "eps_dia{bd}"),
            ("dbd", "d", "delta_dd{e} . dia(eps_box{d})"),
            ("b", "", "eps_box{e}"),
            ("", "d", "eps_dia{e}"),
        ],
    ),
    "s42_triv": (
        ("b", "db", "bd", "d", ""),
        [
            ("b", "db", "eps_dia{b}"),
            ("db", "bd", "chi_db{e}"),
            ("bd", "d", "eps_box{d}"),
            ("b", "", "eps_box{e}"),
            ("", "d", "eps_dia{e}"),
        ],
    ),
    "s5_triv": (
        ("b", "", "d"),
        [("b", "", "eps_box{e}"), ("", "d", "eps_dia{e}")],
    ),
    "fives_triv": (
        ("b", "", "d"),
        [("b", "", "eps_box{e}"), ("", "d", "eps_dia{e}")],
    ),
}


def skeleton(theory: "Theory | str") -> SkeletonDiagram:
    """The finite skeleton of a preorder quotient, with one canonical arrow
    term labelling each generating edge."""
    theory = get_theory(theory)
    if theory.id not in _SKELETONS:
        raise TermError(f"theory {theory.id} has no preorder skeleton")
    objects, entries = _SKELETONS[theory.id]
    arrows = _parse_all(entries)
    for arrow in arrows:
        src, tgt = typecheck(arrow.label, theory.base)
        if (src, tgt) != (arrow.src, arrow.tgt):
            raise TermError(f"skeleton arrow {arrow.label} has type "
                            f"{src}->{tgt}, expected {arrow.src}->{arrow.tgt}")
    return SkeletonDiagram(theory.id, objects, arrows)


# ---------------------------------------------------------------------------
# Preordering equations


def preordering_catalog(theory: "Theory | str", word: str = "",
                        ) -> list[tuple[ArrowTerm, ArrowTerm]]:
    """The six equations any one of which collapses the box/diamond-mixing
    theory to a preorder, instantiated at the given index word.  The
    counit-collapse equations head the list; for the mirrored theory the
    catalog is the mirror image."""
    theory = get_theory(theory)
    base = theory.base.id if theory.quotient else theory.id
    if base == "s5":
        ids = [f"preorder_{i}" for i in range(1, 7)]
    elif base == "fives":
        ids = [f"preorder_{i}_s" for i in range(1, 7)]
    else:
        raise TermError("the preordering catalog applies to s5 and fives")
    out = []
    for sid in ids:
        (lsrc, lhs), (rsrc, rhs) = instantiate(get_schema(sid), word)
        if (lsrc, chain_target(lsrc, lhs)) != (rsrc, chain_target(rsrc, rhs)):
            raise TermError(f"catalog entry {sid} is not type-balanced")
        out.append((factors_to_term(lsrc, lhs), factors_to_term(rsrc, rhs)))
    return out
