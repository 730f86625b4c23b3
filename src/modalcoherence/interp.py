"""Coherence functors: interpret arrow terms as finite-ordinal diagrams.

Every registered theory carries a default functor into its target category
(binary relations or split equivalences); the classic presentations of the
base system also admit the two one-sided functor variants, the
box/diamond-mixing theories admit a dual functor that exchanges the counit
and comultiplication shapes, and the collapse quotients use a conjugated
functor computed in :mod:`modalcoherence.quotient`.

Equality of deductions is decided here by comparing diagrams, which the
coherence theorems make complete for the registered non-quotient theories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import diagram as dg
from .terms import ArrowTerm, Factor, TermError, word_to_str
from .theories import (
    GEN,
    REL,
    SHARP,
    TRIV,
    Theory,
    get_theory,
    typed_factors,
)

STD = "std"
EPS = "eps"
DELTA = "delta"
DUAL = "dual"
SHARP_VARIANT = "sharp"

VARIANTS = (STD, EPS, DELTA, DUAL, SHARP_VARIANT)

# Theories admitting the one-sided functor variants.  On the mixed theories
# only one side is a functor (the added diagonal of the delta variant breaks
# the counit/unit mixing, and dually), so the eps variant stops at the
# counit-only mixed theory and the delta variant at the comultiplication-only
# one.
_EPS_OK = {"k", "t_box", "t_dia", "k4_box", "k4_dia", "t_boxdia"}
_DELTA_OK = {"k", "t_box", "t_dia", "k4_box", "k4_dia", "k4_boxdia"}
_DUAL_OK = {"s5", "fives"}


class VariantError(TermError):
    pass


def check_variant(theory: Theory, variant: str) -> None:
    if variant == STD:
        if theory.quotient == SHARP:
            return  # resolved to the sharp functor
        if theory.quotient == TRIV:
            raise VariantError(
                f"{theory.id} is a preorder quotient; it has no diagram functor")
        return
    if variant in (EPS, DELTA):
        allowed = _EPS_OK if variant == EPS else _DELTA_OK
        if theory.id not in allowed:
            raise VariantError(
                f"variant {variant!r} only applies to the base-system theories")
        return
    if variant == DUAL:
        if theory.id not in _DUAL_OK:
            raise VariantError(f"variant 'dual' only applies to s5 and fives")
        return
    if variant == SHARP_VARIANT:
        if theory.quotient != SHARP:
            raise VariantError(
                f"variant 'sharp' only applies to the sharp quotients")
        return
    raise VariantError(f"unknown functor variant {variant!r}")


# Per-factor clauses as data.  A generator kind maps to (s, t, links), the
# middle of a ``diagram.fold`` step: the generator spans s source and t
# target strands above the n strands of its index word, which pass straight
# through, and its links are written with offsets from n.
_CHI = (2, 2, ((0, 1), (1, 0)))
_REL_STD = {
    "eps_box": (1, 0, ()),
    "eps_dia": (0, 1, ()),
    "delta_bb": (1, 2, ((0, 0), (0, 1))),
    "delta_dd": (2, 1, ((0, 0), (1, 0))),
    "chi_bb": _CHI, "chi_dd": _CHI, "chi_db": _CHI, "chi_bd": _CHI,
}
_CAP = (1, 2, ((("s", 0), ("t", 0), ("t", 1)),))
_CUP = (2, 1, ((("s", 0), ("s", 1), ("t", 0)),))
_DUAL_CAP = (2, 3, ((("s", 0), ("t", 0)), (("t", 1),), (("s", 1), ("t", 2))))
_DUAL_CUP = (3, 2, ((("s", 0), ("t", 0)), (("s", 1),), (("s", 2), ("t", 1))))

# (target category, variant) -> generator kind -> clause.
_CLAUSES = {
    (REL, STD): _REL_STD,
    # The counit-only functor drops the duplication link; the
    # comultiplication-only functor adds a diagonal to the counit.
    (REL, EPS): {**_REL_STD, "delta_bb": (1, 2, ((0, 0),)),
                 "delta_dd": (2, 1, ((0, 0),))},
    (REL, DELTA): {**_REL_STD, "eps_box": (1, 0, ((0, -1),)),
                   "eps_dia": (0, 1, ((-1, 0),))},
    (GEN, STD): {
        "eps_box": (1, 0, ((("s", 0),),)), "eps_dia": (0, 1, ((("t", 0),),)),
        "delta_bb": _CAP, "delta_bd": _CAP, "sigma_bb": _CAP, "sigma_db": _CAP,
        "delta_dd": _CUP, "delta_db": _CUP, "sigma_dd": _CUP, "sigma_bd": _CUP,
    },
    # Counit and comultiplication exchange shapes; objects gain one strand.
    (GEN, DUAL): {"eps_box": _CUP, "eps_dia": _CAP,
                  "delta_bb": _DUAL_CAP, "delta_bd": _DUAL_CAP,
                  "delta_dd": _DUAL_CUP, "delta_db": _DUAL_CUP},
}


def factor_steps(target: str, variant: str,
                 factors: list[Factor]) -> list[dg.Step]:
    """Each factor as one step of :func:`diagram.fold`: its clause, above
    the strands of its index word and below those of its prefix."""
    clauses = _CLAUSES[target, variant]
    try:
        return [(len(f.index), *clauses[f.kind], len(f.prefix))
                for f in factors]
    except KeyError as exc:
        raise VariantError(
            f"no {variant} clause for generator {exc.args[0]}") from None


def fold(target: str, variant: str, src: str,
         factors: list[Factor]) -> dg.Diagram:
    """Composite of the factors' images, in application order; the identity
    on ``src`` when there are no factors.

    The composite is the :func:`diagram.fold` of the factors' steps.  It
    carries ``src`` and the last factor's target word, except under the dual
    functor, whose strands outnumber the letters by one.
    """
    steps = factor_steps(target, variant, factors)
    if variant == DUAL:
        return dg.fold(target, len(src) + 1, steps)
    return dg.fold(target, len(src), steps, src,
                   factors[-1].tgt if factors else src)


def _image(theory: Theory, variant: str, src: str, tgt: str,
           factors: list[Factor]) -> dg.Diagram:
    if variant == SHARP_VARIANT or (variant == STD and theory.quotient == SHARP):
        from .quotient import sharp_image

        return sharp_image(theory, src, tgt, factors)
    if variant == DUAL and theory.id == "fives":
        from .decide import mirror_factor

        mirrored = [mirror_factor(f, source="fives") for f in factors]
        return dg.mirror(fold(GEN, DUAL, src[::-1], mirrored))
    return fold(theory.target, variant, src, factors)


def interp(theory: "Theory | str", term: ArrowTerm, variant: str = STD) -> dg.Diagram:
    """Image of a well-typed term under the requested coherence functor: the
    composite of its factors' images, folded along one walk of the term.

    The diagram carries the term's source and target words as labels, except
    under the dual functor, whose boundary ordinals exceed the word lengths.
    """
    theory = get_theory(theory)
    check_variant(theory, variant)
    return _image(theory, variant, *typed_factors(term, theory))


EQUAL = "equal"
NOT_EQUAL = "not_equal"
TYPE_MISMATCH = "type_mismatch"


@dataclass(frozen=True)
class EqualityResult:
    verdict: str
    left_type: tuple[str, str]
    right_type: tuple[str, str]
    left_diagram: Optional[dg.Diagram] = None
    right_diagram: Optional[dg.Diagram] = None

    def __bool__(self) -> bool:
        return self.verdict == EQUAL

    def describe(self) -> str:
        if self.verdict == TYPE_MISMATCH:
            lt, rt = self.left_type, self.right_type
            return (f"type mismatch: {word_to_str(lt[0])} |- {word_to_str(lt[1])}"
                    f" vs {word_to_str(rt[0])} |- {word_to_str(rt[1])}")
        return self.verdict.replace("_", " ")


@dataclass(frozen=True)
class SoundnessFailure:
    schema_id: str
    word: str
    inner: Optional[str]
    lhs: str
    rhs: str


@dataclass(frozen=True)
class SoundnessReport:
    theory_id: str
    variant: str
    instances: int
    failures: tuple[SoundnessFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        head = (f"{self.theory_id}/{self.variant}: {self.instances} instances, "
                f"{len(self.failures)} failures")
        lines = [head]
        for fail in self.failures:
            lines.append(f"  {fail.schema_id} @ A={word_to_str(fail.word)}"
                         + (f" f={fail.inner}" if fail.inner else "")
                         + f": {fail.lhs}  !=  {fail.rhs}")
        return "\n".join(lines)


def _all_words(max_len: int) -> list[str]:
    words = [""]
    level = [""]
    for _ in range(max_len):
        level = [w + c for w in level for c in "bd"]
        words.extend(level)
    return words


def check_soundness(theory: "Theory | str", variant: str = STD,
                    idx_bound: int = 3, f_bound: int = 2) -> SoundnessReport:
    """Verify every axiom-schema instance of the theory under the functor.

    Index metavariables range over words of length <= idx_bound; the inner
    arrow of a naturality schema ranges over all theory factor lists with at
    most f_bound generators whose source word has length <= idx_bound.  Each
    side of an instance is typed and checked against the theory's generator
    and index discipline, and the two sides must agree on type (source and
    target word) and on image under the functor.  For the preorder
    quotients the check degenerates to equality of types, which is what
    their decision procedure relies on.
    """
    from .schemas import get_schema, instantiate
    from .terms import chain_target, factors_to_term
    from .theories import check_admitted, enumerate_factor_terms

    theory = get_theory(theory)
    type_only = theory.quotient == TRIV
    if not type_only:
        check_variant(theory, variant)
    words = _all_words(idx_bound)
    failures: list[SoundnessFailure] = []
    instances = 0

    def summary(src: str, factors: list[Factor]) -> tuple:
        tgt = chain_target(src, factors)
        check_admitted(theory, factors)
        if type_only:
            return src, tgt
        return src, tgt, _image(theory, variant, src, tgt, factors).key()

    def check_one(schema, word: str, inner: Optional[tuple]) -> None:
        nonlocal instances
        instances += 1
        lhs, rhs = instantiate(schema, word, inner)
        if summary(*lhs) != summary(*rhs):
            failures.append(SoundnessFailure(
                schema.id, word,
                str(factors_to_term(*inner)) if inner else None,
                str(factors_to_term(*lhs)), str(factors_to_term(*rhs))))

    for schema_id in theory.equations:
        schema = get_schema(schema_id)
        for word in words:
            if schema.naturality:
                for factors in enumerate_factor_terms(theory, word, f_bound):
                    check_one(schema, word, (word, factors))
            else:
                check_one(schema, word, None)
    return SoundnessReport(theory.id, variant, instances, tuple(failures))


def decide_equal(theory: "Theory | str", f: ArrowTerm, g: ArrowTerm) -> EqualityResult:
    """Decide equality of two deductions in a theory.

    Non-quotient theories and the sharp quotients compare images under their
    (faithful) functor; the preorder quotients identify all terms of equal
    type.
    """
    theory = get_theory(theory)
    fsrc, ftgt, ffactors = typed_factors(f, theory)
    gsrc, gtgt, gfactors = typed_factors(g, theory)
    ftype, gtype = (fsrc, ftgt), (gsrc, gtgt)
    if ftype != gtype:
        return EqualityResult(TYPE_MISMATCH, ftype, gtype)
    if theory.quotient == TRIV:
        return EqualityResult(EQUAL, ftype, gtype)
    df = _image(theory, STD, fsrc, ftgt, ffactors)
    dgm = _image(theory, STD, gsrc, gtgt, gfactors)
    verdict = EQUAL if df.same_as(dgm) else NOT_EQUAL
    return EqualityResult(verdict, ftype, gtype, df, dgm)
