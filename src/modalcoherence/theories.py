"""Equational theories of modal deductions and their registry.

A theory names a generator set, an equation list (schema identifiers resolved
by :mod:`modalcoherence.schemas`), the diagram category its coherence functor
lands in (binary relations or split equivalences), and an optional quotient
marker for the collapse variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

from .terms import (
    GENERATORS,
    ArrowTerm,
    Factor,
    TypingError,
    term_factors,
    word_to_str,
)

REL = "rel"
GEN = "gen"

SHARP = "sharp"
TRIV = "triv"


class TheoryError(TypingError):
    """A term uses a generator or index the theory does not admit."""


@dataclass(frozen=True)
class Theory:
    id: str
    generators: frozenset[str]
    equations: tuple[str, ...]
    target: str = REL
    quotient: Optional[str] = None
    base_id: Optional[str] = None  # for quotients: theory supplying the functor
    # Optional predicate on generator index words (None = unconstrained).
    index_constraint: Optional[Callable[[str], bool]] = field(
        default=None, compare=False
    )
    index_constraint_name: Optional[str] = None

    def admits(self, kind: str) -> bool:
        return kind in self.generators

    @property
    def base(self) -> "Theory":
        return get_theory(self.base_id) if self.base_id else self


_EPS = frozenset({"eps_box", "eps_dia"})
_DELTA4 = frozenset({"delta_bb", "delta_dd"})
_S4BD = _EPS | _DELTA4

_EQ_T_BOX = ("nat_eps_box", "slide_eps_box")
_EQ_T_DIA = ("nat_eps_dia", "slide_eps_dia")
_EQ_K4_BOX = ("nat_delta_bb", "assoc_delta_bb")
_EQ_K4_DIA = ("nat_delta_dd", "assoc_delta_dd")
_EQ_S4_BOX = ("nat_eps_box", "nat_delta_bb", "assoc_delta_bb", "beta_bb", "eta_bb")
_EQ_S4_DIA = ("nat_eps_dia", "nat_delta_dd", "assoc_delta_dd", "beta_dd", "eta_dd")
_EQ_S4_BD = _EQ_S4_BOX + _EQ_S4_DIA
_EQ_CHI_BB = ("nat_chi_bb", "invol_chi_bb", "yb_chi_bb")
_EQ_CHI_DD = ("nat_chi_dd", "invol_chi_dd", "yb_chi_dd")
_EQ_S_CHI = _EQ_T_BOX + _EQ_CHI_BB + ("eps_chi_bb",)
_EQ_SPLUS_CHI = _EQ_K4_BOX + _EQ_CHI_BB + ("delta_chi_bb", "chi_delta_bb")
_EQ_S4_BOX_CHI = _EQ_S4_BOX + _EQ_CHI_BB + ("eps_chi_bb", "delta_chi_bb", "chi_delta_bb")
_EQ_S4_DIA_CHI = _EQ_S4_DIA + _EQ_CHI_DD + ("eps_chi_dd", "delta_chi_dd", "chi_delta_dd")
_EQ_S42_EXTRA = (
    "nat_chi_db",
    "eps_box_chi_db",
    "eps_dia_chi_db",
    "delta_bb_chi_db",
    "delta_dd_chi_db",
)
_EQ_S41_EXTRA = (
    "nat_chi_bd",
    "eps_box_chi_bd",
    "eps_dia_chi_bd",
    "delta_bb_chi_bd",
    "delta_dd_chi_bd",
)
_EQ_S5 = (
    "nat_eps_box",
    "nat_eps_dia",
    "nat_delta_bb",
    "nat_delta_bd",
    "nat_delta_dd",
    "nat_delta_db",
    "assoc_delta_bb",
    "assoc_delta_bd",
    "assoc_delta_dd",
    "assoc_delta_db",
    "beta_bb",
    "beta_bd",
    "beta_dd",
    "beta_db",
    "eta_bb",
    "eta_dd",
    "zigzag_n_b",
    "zigzag_n_d",
    "zigzag_i_b",
    "zigzag_i_d",
)
_EQ_FIVES = (
    "nat_eps_box",
    "nat_eps_dia",
    "nat_sigma_bb",
    "nat_sigma_db",
    "nat_sigma_dd",
    "nat_sigma_bd",
    "assoc_sigma_bb",
    "assoc_sigma_db",
    "assoc_sigma_dd",
    "assoc_sigma_bd",
    "beta_sigma_bb",
    "beta_sigma_dd",
    "eta_sigma_bb",
    "eta_sigma_db",
    "eta_sigma_bd",
    "eta_sigma_dd",
    "zigzag_n_b_s",
    "zigzag_n_d_s",
    "zigzag_i_b_s",
    "zigzag_i_d_s",
)
_EQ_TRIV = ("triv_eps_box", "triv_eps_dia")
_EQ_PREORDER = tuple(f"preorder_{i}" for i in range(1, 7))


def _theories() -> dict[str, Theory]:
    entries = [
        Theory("k", frozenset(), ()),
        Theory("t_box", frozenset({"eps_box"}), _EQ_T_BOX),
        Theory("t_dia", frozenset({"eps_dia"}), _EQ_T_DIA),
        Theory("k4_box", frozenset({"delta_bb"}), _EQ_K4_BOX),
        Theory("k4_dia", frozenset({"delta_dd"}), _EQ_K4_DIA),
        Theory("t_boxdia", _EPS, _EQ_T_BOX + _EQ_T_DIA),
        Theory("k4_boxdia", _DELTA4, _EQ_K4_BOX + _EQ_K4_DIA),
        Theory("s_chi", frozenset({"eps_box", "chi_bb"}), _EQ_S_CHI),
        Theory("splus_chi_op", frozenset({"delta_bb", "chi_bb"}), _EQ_SPLUS_CHI),
        Theory("s4_box", frozenset({"eps_box", "delta_bb"}), _EQ_S4_BOX),
        Theory("s4_dia", frozenset({"eps_dia", "delta_dd"}), _EQ_S4_DIA),
        Theory("s4_boxdia", _S4BD, _EQ_S4_BD),
        Theory("s4_box_chi", frozenset({"eps_box", "delta_bb", "chi_bb"}), _EQ_S4_BOX_CHI),
        Theory("s4_dia_chi", frozenset({"eps_dia", "delta_dd", "chi_dd"}), _EQ_S4_DIA_CHI),
        Theory("s4_boxdia_chi", _S4BD | {"chi_bb", "chi_dd"},
               _EQ_S4_BD + _EQ_CHI_BB + _EQ_CHI_DD
               + ("eps_chi_bb", "delta_chi_bb", "chi_delta_bb",
                  "eps_chi_dd", "delta_chi_dd", "chi_delta_dd")),
        Theory("s42", _S4BD | {"chi_db"}, _EQ_S4_BD + _EQ_S42_EXTRA),
        Theory("s41", _S4BD | {"chi_bd"}, _EQ_S4_BD + _EQ_S41_EXTRA),
        Theory("s42_iso", _S4BD | {"chi_db", "chi_bd"},
               _EQ_S4_BD + _EQ_S42_EXTRA + _EQ_S41_EXTRA
               + ("chi_inv_db", "chi_inv_bd")),
        Theory("s5", _S4BD | {"delta_bd", "delta_db"}, _EQ_S5, target=GEN),
        Theory("fives", _EPS | {"sigma_bb", "sigma_dd", "sigma_db", "sigma_bd"},
               _EQ_FIVES, target=GEN),
    ]
    reg = {t.id: t for t in entries}
    reg["s4_boxdia_sharp"] = replace(
        reg["s4_boxdia"], id="s4_boxdia_sharp", quotient=SHARP,
        base_id="s4_boxdia", equations=_EQ_S4_BD + _EQ_TRIV)
    reg["s42_sharp"] = replace(
        reg["s42"], id="s42_sharp", quotient=SHARP,
        base_id="s42", equations=reg["s42"].equations + _EQ_TRIV)
    reg["s4_boxdia_triv"] = replace(
        reg["s4_boxdia"], id="s4_boxdia_triv", quotient=TRIV,
        base_id="s4_boxdia",
        equations=_EQ_S4_BD + _EQ_TRIV + ("commute_box_dia",))
    reg["s42_triv"] = replace(
        reg["s42"], id="s42_triv", quotient=TRIV, base_id="s42",
        equations=reg["s42"].equations + _EQ_TRIV + ("commute_box_dia",))
    reg["s5_triv"] = replace(
        reg["s5"], id="s5_triv", quotient=TRIV, base_id="s5",
        equations=_EQ_S5 + _EQ_PREORDER)
    reg["fives_triv"] = replace(
        reg["fives"], id="fives_triv", quotient=TRIV, base_id="fives",
        equations=_EQ_FIVES + tuple(f"preorder_{i}_s" for i in range(1, 7)))
    return reg


REGISTRY: dict[str, Theory] = _theories()

# The stages of each theory's staged normal form, earliest applied first; a
# stage names one generator kind, or several kinds that share the stage.
# Relational synthesis (decide) runs these stages in this order, and directed
# rewriting (rewrite) sorts adjacent factors by stage number.
STAGES: dict[str, tuple[str, ...]] = {
    "t_box": ("eps_box",),
    "t_dia": ("eps_dia",),
    "k4_box": ("delta_bb",),
    "k4_dia": ("delta_dd",),
    "t_boxdia": ("eps_box", "eps_dia"),
    "k4_boxdia": ("delta_dd", "delta_bb"),
    "s4_box": ("eps_box", "delta_bb"),
    "s4_dia": ("delta_dd", "eps_dia"),
    "s4_boxdia": ("eps_box", "delta_dd", "delta_bb", "eps_dia"),
    "s_chi": ("eps_box", "chi_bb"),
    "splus_chi_op": ("delta_bb", "chi_bb"),
    "s4_box_chi": ("eps_box", "delta_bb", "chi_bb"),
    "s4_dia_chi": ("chi_dd", "delta_dd", "eps_dia"),
    "s4_boxdia_chi": ("eps_box", "delta_bb", "chi_bb", "chi_dd", "delta_dd",
                      "eps_dia"),
    "s42": ("eps_box", "delta_bb", "chi_db", "delta_dd", "eps_dia"),
    "s41": ("eps_box", "delta_bb", "chi_bd", "delta_dd", "eps_dia"),
    "s42_iso": ("eps_box", "delta_bb", "chi_db chi_bd", "delta_dd", "eps_dia"),
    # Kill/cup, then birth/cap.
    "s5": ("eps_box delta_db delta_dd", "eps_dia delta_bb delta_bd"),
    "fives": ("eps_box sigma_bd sigma_dd", "eps_dia sigma_bb sigma_db"),
}

# Generator kind -> stage number (from 1) for each theory in STAGES.
STAGE_NUMBERS: dict[str, dict[str, int]] = {
    tid: {kind: n for n, stage in enumerate(stages, 1) for kind in stage.split()}
    for tid, stages in STAGES.items()
}

def get_theory(theory: "Theory | str") -> Theory:
    if isinstance(theory, Theory):
        return theory
    try:
        return REGISTRY[theory]
    except KeyError:
        raise TheoryError(f"unknown theory {theory!r}") from None


def raw_splus() -> Theory:
    """The positive fragment presented with a nonempty-index restriction.

    Same generator and equations as ``t_box``, but the counit index must be a
    nonempty word.  Only used for fidelity tests of the restricted base
    system; the registry's k4 theories carry the restriction implicitly.
    """
    return replace(
        REGISTRY["t_box"], id="splus_raw",
        index_constraint=lambda w: len(w) >= 1,
        index_constraint_name="nonempty index",
    )


def applicable_factors(theory: "Theory | str", word: str) -> list[Factor]:
    """Single generator factors of the theory whose source is ``word``,
    ordered by generator kind then application depth."""
    theory = get_theory(theory)
    out = []
    for kind in sorted(theory.generators):
        src_pre = GENERATORS[kind][0]
        for depth in range(len(word) + 1):
            rest = word[depth:]
            if not rest.startswith(src_pre):
                continue
            index = rest[len(src_pre):]
            if theory.index_constraint and not theory.index_constraint(index):
                continue
            out.append(Factor(word[:depth], kind, index))
    return out


def enumerate_factor_terms(theory: "Theory | str", src: str,
                           max_gens: int) -> "list[list[Factor]]":
    """All factor lists of length <= max_gens starting from ``src`` (the
    empty list denotes the identity)."""
    theory = get_theory(theory)
    results: list[list] = [[]]
    frontier: list[tuple[str, list]] = [(src, [])]
    for _ in range(max_gens):
        grown = []
        for word, factors in frontier:
            for factor in applicable_factors(theory, word):
                extended = factors + [factor]
                grown.append((factor.tgt, extended))
                results.append(extended)
        frontier = grown
    return results


def typed_factors(term: ArrowTerm, theory: "Theory | str",
                  ) -> tuple[str, str, list[Factor]]:
    """Walk a term once: its type and factors, with the theory's generator
    and index discipline enforced on the factors."""
    theory = get_theory(theory)
    src, tgt, factors = term_factors(term)
    check_admitted(theory, factors)
    return src, tgt, factors


def check_admitted(theory: Theory, factors: Iterable[Factor]) -> None:
    """Enforce the theory's generator and index discipline on factors."""
    for factor in factors:
        if not theory.admits(factor.kind):
            raise TheoryError(
                f"generator {factor.kind} is not in theory {theory.id}")
        if theory.index_constraint and not theory.index_constraint(factor.index):
            raise TheoryError(
                f"index {word_to_str(factor.index)!r} of {factor.kind} violates "
                f"{theory.index_constraint_name} in {theory.id}")


def typecheck(term: ArrowTerm, theory: "Theory | str") -> tuple[str, str]:
    """Type a term and enforce the theory's generator and index discipline."""
    src, tgt, _ = typed_factors(term, theory)
    return src, tgt
