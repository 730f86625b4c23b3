"""Equation schemas: the axiom families of each theory.

A schema side is a tuple of factor patterns in application order (the first
entry applies first).  A pattern factor is either a concrete generator with a
fixed operator prefix and an index of the form ``pre + A`` (``A`` a word
metavariable), or an arrow metavariable ``f`` under a fixed prefix, whose
source and target words bind the metavariables ``A`` and ``B``.  ``f`` is
bound to a tuple of factors.  An empty side denotes an identity; its word is
recorded separately.

Schemas *match* against factor lists (driving the proof-search and
directed-rewriting engines) and *instantiate* (producing concrete equation
instances for the soundness sweep).  Both build a side from its bindings
with :func:`build_side`, which gives a factor list; an instance is a
(source word, factors) pair per side, never a term.

Of the pattern schemas, 39 are derived, not written out.  Each entry of
``_DUALS`` is the dual (:func:`_dual`) of a hand-written schema: its sides
reversed, its words letter-swapped, its kinds mapped by
:data:`terms.DUAL_KIND`, and in a naturality schema ``A`` and ``B``
exchanged.  Each entry of ``_MIRRORS``, a fives schema, is the mirror
(:func:`_mirror`) of an s5 schema, hand-written or a dual: each pattern's
prefix and index prefix exchange places, each reversed, and its kind is
mapped by :data:`terms.MIRROR_KIND`.  A schema whose image has its sides
exchanged is written out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .terms import (
    DUAL_KIND,
    GENERATORS,
    MIRROR_KIND,
    Factor,
    TermError,
    chain_target,
    mirror_factor,
    swap_word,
)


@dataclass(frozen=True)
class GenPat:
    prefix: str
    kind: str
    index_pre: str
    index_var: str = "A"


@dataclass(frozen=True)
class FVarPat:
    prefix: str


Pat = Union[GenPat, FVarPat]
Side = tuple[Pat, ...]


@dataclass(frozen=True)
class EquationSchema:
    id: str
    lhs: Side
    rhs: Side
    # Word of the identity side, as (prefix letters, metavariable), for
    # schemas one of whose sides is an identity.
    identity_word: Optional[tuple[str, str]] = None
    # A mirrored schema has no patterns of its own: its instances are the
    # mirror images (terms.mirror_factor) of this s5 schema's instances.
    mirror_of: Optional[str] = None

    @property
    def naturality(self) -> bool:
        return any(isinstance(p, FVarPat) for p in self.lhs + self.rhs)

    @property
    def pattern_based(self) -> bool:
        return self.mirror_of is None


def G(prefix: str, kind: str, index_pre: str, index_var: str = "A") -> GenPat:
    assert kind in GENERATORS
    return GenPat(prefix, kind, index_pre, index_var)


F = FVarPat


# ---------------------------------------------------------------------------
# Matching and instantiation over factor lists


def match_side(side: Side, segment: Sequence[Factor],
               bindings: Optional[dict] = None,
               outer: str = "") -> Optional[dict]:
    """Match a pattern side against a factor segment; returns bindings.

    ``outer`` is an operator prefix common to the whole segment that is
    stripped before matching: each factor is matched as if its prefix did
    not start with ``outer``, and a factor whose prefix does not start with
    it fails to match.  An arrow metavariable matches one factor and binds
    ``f`` to the one-factor tuple of it, with the pattern's prefix stripped.
    """
    if len(side) != len(segment):
        return None
    bound: dict = dict(bindings) if bindings else {}
    for pat, factor in zip(side, segment):
        if isinstance(pat, GenPat):
            if (factor.kind != pat.kind or factor.prefix != outer + pat.prefix
                    or not factor.index.startswith(pat.index_pre)):
                return None
            word = factor.index[len(pat.index_pre):]
            if bound.setdefault(pat.index_var, word) != word:
                return None
        else:
            head = outer + pat.prefix
            if not factor.prefix.startswith(head):
                return None
            inner = Factor(factor.prefix[len(head):], factor.kind,
                           factor.index)
            f = (inner,)
            if (bound.setdefault("f", f) != f
                    or bound.setdefault("A", inner.src) != inner.src
                    or bound.setdefault("B", inner.tgt) != inner.tgt):
                return None
    return bound


def build_side(side: Side, bindings: dict) -> list[Factor]:
    """The factors of a pattern side under the bindings; the inner arrow
    ``f`` is spliced in whole, under the pattern's prefix."""
    factors = []
    for pat in side:
        if isinstance(pat, GenPat):
            factors.append(Factor(pat.prefix, pat.kind,
                                  pat.index_pre + bindings[pat.index_var]))
        else:
            factors.extend(Factor(pat.prefix + g.prefix, g.kind, g.index)
                           for g in bindings["f"])
    return factors


Instance = tuple[str, list[Factor]]
# A side up to its inner arrow: (source word, factors before the arrow,
# prefix of the arrow or None when the side has none, patterns after it).
OpenSide = tuple[str, list[Factor], Optional[str], Side]


def open_sides(schema: EquationSchema, word: str,
               ) -> tuple[OpenSide, OpenSide]:
    """The (lhs, rhs) sides of the schema's instances whose inner arrow
    starts at ``word``, each cut at its arrow metavariable.

    The patterns before the arrow bind ``A`` to ``word``; those after it
    name only ``B``, the arrow's target, which :func:`instantiate` and the
    soundness sweep bind.  A mirrored schema's sides are the mirror images
    of its base schema's sides at the reversed word.
    """
    if schema.mirror_of is not None:
        base = get_schema(schema.mirror_of)
        return tuple((src[::-1], [mirror_factor(f) for f in factors], None, ())
                     for src, factors, _, _ in open_sides(base, word[::-1]))
    bindings = {"A": word}
    opened = []
    for side in (schema.lhs, schema.rhs):
        cut = next((k for k, pat in enumerate(side)
                    if isinstance(pat, FVarPat)), len(side))
        prefix = side[cut].prefix if cut < len(side) else None
        before = build_side(side[:cut], bindings)
        if before:
            src = before[0].src
        elif prefix is not None:
            src = prefix + word
        else:
            pre, var = schema.identity_word
            src = pre + bindings[var]
        opened.append((src, before, prefix, side[cut + 1:]))
    return tuple(opened)


def instantiate(schema: EquationSchema, word: str,
                inner: Optional[Instance] = None) -> tuple[Instance, Instance]:
    """Concrete (lhs, rhs) instance at index word ``word``, each side as its
    source word and its factors in application order.

    A naturality schema takes its inner arrow ``inner`` as (source word,
    factors), which binds ``A`` and ``B``; ``word`` is then unused.  A
    mirrored schema is the mirror image of its base schema's instance at
    the reversed word.  The sides are not typed here.
    """
    factors: list[Factor] = []
    if schema.naturality:
        if inner is None:
            raise TermError(f"schema {schema.id} needs an inner arrow")
        word, factors = inner
    bindings = {"f": factors, "B": chain_target(word, factors)}
    sides = []
    for src, built, prefix, after in open_sides(schema, word):
        if prefix is not None:
            built += build_side((F(prefix), *after), bindings)
        sides.append((src, built))
    return tuple(sides)


# ---------------------------------------------------------------------------
# The registry


def _schema(id: str, lhs: list[Pat], rhs: list[Pat],
            identity_word: Optional[tuple[str, str]] = None) -> EquationSchema:
    return EquationSchema(id, tuple(lhs), tuple(rhs), identity_word)


def _dual(schema: EquationSchema, id: str) -> EquationSchema:
    """The dual of a schema, as :func:`terms.dual_factors` of its sides."""
    var = {"A": "B", "B": "A"} if schema.naturality else {"A": "A"}
    lhs, rhs = ([F(swap_word(p.prefix)) if isinstance(p, FVarPat)
                 else G(swap_word(p.prefix), DUAL_KIND[p.kind],
                        swap_word(p.index_pre), var[p.index_var])
                 for p in reversed(side)] for side in (schema.lhs, schema.rhs))
    word = schema.identity_word
    return _schema(id, lhs, rhs, word and (swap_word(word[0]), word[1]))


def _mirror(schema: EquationSchema, id: str) -> EquationSchema:
    """The mirror of a schema, as :func:`terms.mirror_factor` of its sides
    at index e; the metavariables stay at the end of each index."""
    lhs, rhs = ([F(p.prefix[::-1]) if isinstance(p, FVarPat)
                 else G(p.index_pre[::-1], MIRROR_KIND[p.kind],
                        p.prefix[::-1], p.index_var)
                 for p in side] for side in (schema.lhs, schema.rhs))
    word = schema.identity_word
    return _schema(id, lhs, rhs, word and (word[0][::-1], word[1]))


# The derived schemas, as (id, source id); the duals are built first.
_DUALS = (
    ("nat_eps_dia", "nat_eps_box"), ("nat_delta_dd", "nat_delta_bb"),
    ("nat_delta_db", "nat_delta_bd"), ("slide_eps_dia", "slide_eps_box"),
    ("assoc_delta_dd", "assoc_delta_bb"), ("assoc_delta_db", "assoc_delta_bd"),
    ("beta_dd", "beta_bb"), ("beta_db", "beta_bd"), ("eta_dd", "eta_bb"),
    ("zigzag_i_d", "zigzag_n_b"), ("zigzag_i_b", "zigzag_n_d"),
    ("invol_chi_dd", "invol_chi_bb"), ("yb_chi_dd", "yb_chi_bb"),
    ("eps_chi_dd", "eps_chi_bb"), ("delta_chi_dd", "delta_chi_bb"),
    ("chi_delta_dd", "chi_delta_bb"), ("chi_inv_bd", "chi_inv_db"),
    ("eps_dia_chi_db", "eps_box_chi_db"), ("eps_dia_chi_bd", "eps_box_chi_bd"),
    ("delta_dd_chi_db", "delta_bb_chi_db"),
    ("delta_dd_chi_bd", "delta_bb_chi_bd"),
)
_MIRRORS = (
    ("nat_sigma_bb", "nat_delta_bb"), ("nat_sigma_db", "nat_delta_bd"),
    ("nat_sigma_bd", "nat_delta_db"), ("nat_sigma_dd", "nat_delta_dd"),
    ("assoc_sigma_bb", "assoc_delta_bb"), ("assoc_sigma_db", "assoc_delta_bd"),
    ("assoc_sigma_bd", "assoc_delta_db"), ("assoc_sigma_dd", "assoc_delta_dd"),
    ("beta_sigma_bb", "eta_bb"), ("beta_sigma_dd", "eta_dd"),
    ("eta_sigma_bb", "beta_bb"), ("eta_sigma_db", "beta_bd"),
    ("eta_sigma_bd", "beta_db"), ("eta_sigma_dd", "beta_dd"),
    ("zigzag_n_b_s", "zigzag_i_b"), ("zigzag_n_d_s", "zigzag_i_d"),
    ("zigzag_i_b_s", "zigzag_n_b"), ("zigzag_i_d_s", "zigzag_n_d"),
)


def _build_registry() -> dict[str, EquationSchema]:
    s: list[EquationSchema] = []

    # Naturality families.
    s.append(_schema("nat_eps_box",
                     [F("b"), G("", "eps_box", "", "B")],
                     [G("", "eps_box", "", "A"), F("")]))
    s.append(_schema("nat_delta_bb",
                     [G("", "delta_bb", "", "A"), F("bb")],
                     [F("b"), G("", "delta_bb", "", "B")]))
    s.append(_schema("nat_delta_bd",
                     [G("", "delta_bd", "", "A"), F("bd")],
                     [F("d"), G("", "delta_bd", "", "B")]))
    s.append(_schema("nat_chi_bb",
                     [G("", "chi_bb", "", "A"), F("bb")],
                     [F("bb"), G("", "chi_bb", "", "B")]))
    s.append(_schema("nat_chi_dd",
                     [G("", "chi_dd", "", "A"), F("dd")],
                     [F("dd"), G("", "chi_dd", "", "B")]))
    s.append(_schema("nat_chi_db",
                     [G("", "chi_db", "", "A"), F("bd")],
                     [F("db"), G("", "chi_db", "", "B")]))
    s.append(_schema("nat_chi_bd",
                     [G("", "chi_bd", "", "A"), F("db")],
                     [F("bd"), G("", "chi_bd", "", "B")]))

    # Counit slide (the one-generator base form of naturality).
    s.append(_schema("slide_eps_box",
                     [G("b", "eps_box", "", "A"), G("", "eps_box", "", "A")],
                     [G("", "eps_box", "b", "A"), G("", "eps_box", "", "A")]))

    # Comultiplication associativity (and its mixed forms).
    s.append(_schema("assoc_delta_bb",
                     [G("", "delta_bb", "", "A"), G("b", "delta_bb", "", "A")],
                     [G("", "delta_bb", "", "A"), G("", "delta_bb", "b", "A")]))
    s.append(_schema("assoc_delta_bd",
                     [G("", "delta_bd", "", "A"), G("b", "delta_bd", "", "A")],
                     [G("", "delta_bd", "", "A"), G("", "delta_bb", "d", "A")]))

    # Triangle laws.
    s.append(_schema("beta_bb",
                     [G("", "delta_bb", "", "A"), G("", "eps_box", "b", "A")],
                     [], identity_word=("b", "A")))
    s.append(_schema("beta_bd",
                     [G("", "delta_bd", "", "A"), G("", "eps_box", "d", "A")],
                     [], identity_word=("d", "A")))
    s.append(_schema("eta_bb",
                     [G("", "delta_bb", "", "A"), G("b", "eps_box", "", "A")],
                     [], identity_word=("b", "A")))

    # Mixed interaction laws (the N- and I-shaped equations).
    s.append(_schema("zigzag_n_b",
                     [G("", "delta_bd", "b", "A"), G("b", "delta_db", "", "A")],
                     [G("", "delta_db", "", "A"), G("", "delta_bb", "", "A")]))
    s.append(_schema("zigzag_n_d",
                     [G("", "delta_bd", "d", "A"), G("b", "delta_dd", "", "A")],
                     [G("", "delta_dd", "", "A"), G("", "delta_bd", "", "A")]))

    # Permutation generators.
    s.append(_schema("invol_chi_bb",
                     [G("", "chi_bb", "", "A"), G("", "chi_bb", "", "A")],
                     [], identity_word=("bb", "A")))
    s.append(_schema("yb_chi_bb",
                     [G("", "chi_bb", "b", "A"), G("b", "chi_bb", "", "A"),
                      G("", "chi_bb", "b", "A")],
                     [G("b", "chi_bb", "", "A"), G("", "chi_bb", "b", "A"),
                      G("b", "chi_bb", "", "A")]))
    s.append(_schema("eps_chi_bb",
                     [G("", "chi_bb", "", "A"), G("", "eps_box", "b", "A")],
                     [G("b", "eps_box", "", "A")]))
    s.append(_schema("delta_chi_bb",
                     [G("", "chi_bb", "", "A"), G("", "delta_bb", "b", "A")],
                     [G("b", "delta_bb", "", "A"), G("", "chi_bb", "b", "A"),
                      G("b", "chi_bb", "", "A")]))
    s.append(_schema("chi_delta_bb",
                     [G("", "delta_bb", "", "A"), G("", "chi_bb", "", "A")],
                     [G("", "delta_bb", "", "A")]))

    # Mixing permutation: diamond-past-box.
    s.append(_schema("eps_box_chi_db",
                     [G("", "chi_db", "", "A"), G("", "eps_box", "d", "A")],
                     [G("d", "eps_box", "", "A")]))
    s.append(_schema("delta_bb_chi_db",
                     [G("", "chi_db", "", "A"), G("", "delta_bb", "d", "A")],
                     [G("d", "delta_bb", "", "A"), G("", "chi_db", "b", "A"),
                      G("b", "chi_db", "", "A")]))

    # The converse mixing permutation, as the formal inverse.
    s.append(_schema("eps_box_chi_bd",
                     [G("", "eps_box", "d", "A")],
                     [G("", "chi_bd", "", "A"), G("d", "eps_box", "", "A")]))
    s.append(_schema("delta_bb_chi_bd",
                     [G("", "delta_bb", "d", "A"), G("b", "chi_bd", "", "A"),
                      G("", "chi_bd", "b", "A")],
                     [G("", "chi_bd", "", "A"), G("d", "delta_bb", "", "A")]))
    s.append(_schema("chi_inv_db",
                     [G("", "chi_db", "", "A"), G("", "chi_bd", "", "A")],
                     [], identity_word=("db", "A")))

    # Collapse equations.
    s.append(_schema("triv_eps_box",
                     [G("b", "eps_box", "", "A")],
                     [G("", "eps_box", "b", "A")]))
    s.append(_schema("triv_eps_dia",
                     [G("", "eps_dia", "d", "A")],
                     [G("d", "eps_dia", "", "A")]))
    s.append(_schema("commute_box_dia",
                     [G("", "eps_box", "db", "A"), G("db", "eps_dia", "", "A")],
                     [G("bd", "eps_box", "", "A"), G("", "eps_dia", "bd", "A")]))

    # The six preordering equations, each of which collapses the
    # box/diamond-mixing theory to a preorder.
    s.append(_schema("preorder_1",
                     [G("b", "eps_box", "", "A")],
                     [G("", "eps_box", "b", "A")]))
    s.append(_schema("preorder_2",
                     [G("b", "eps_dia", "", "A")],
                     [G("", "eps_box", "", "A"), G("", "eps_dia", "", "A"),
                      G("", "delta_bd", "", "A")]))
    s.append(_schema("preorder_3",
                     [G("", "eps_dia", "", "A"), G("", "delta_bd", "", "A"),
                      G("b", "eps_dia", "d", "A")],
                     [G("", "eps_dia", "", "A"), G("", "eps_dia", "d", "A"),
                      G("", "delta_bd", "d", "A")]))
    s.append(_schema("preorder_4",
                     [G("", "delta_db", "b", "A"), G("", "eps_box", "b", "A"),
                      G("", "eps_box", "", "A")],
                     [G("d", "eps_box", "b", "A"), G("", "delta_db", "", "A"),
                      G("", "eps_box", "", "A")]))
    s.append(_schema("preorder_5",
                     [G("", "delta_db", "", "A"), G("", "eps_box", "", "A"),
                      G("", "eps_dia", "", "A")],
                     [G("d", "eps_box", "", "A")]))
    s.append(_schema("preorder_6",
                     [G("", "eps_dia", "d", "A")],
                     [G("d", "eps_dia", "", "A")]))

    # Mirrored preordering equations, built from the mirror images of their
    # base's instances, which place the reversed index word in the prefix.
    s += [EquationSchema(f"preorder_{i}_s", (), (), mirror_of=f"preorder_{i}")
          for i in range(1, 7)]
    registry = {schema.id: schema for schema in s}
    for table, image in ((_DUALS, _dual), (_MIRRORS, _mirror)):
        for sid, source in table:
            registry[sid] = image(registry[source], sid)
    return registry


SCHEMAS: dict[str, EquationSchema] = _build_registry()


def get_schema(schema_id: str) -> EquationSchema:
    try:
        return SCHEMAS[schema_id]
    except KeyError:
        raise TermError(f"unknown equation schema {schema_id!r}") from None
