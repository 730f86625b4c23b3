"""Reference soundness sweep, independent of the library's side frames and
of its walk over inner arrows: every instance is built whole with
``instantiate`` and each side folded from scratch into a validated diagram,
as the library did before its sweep stepped strand tables.  Tests compare
``interp.check_soundness`` against :func:`check_soundness` here.

Only ``interp.fold``, the one-functor fold of a factor list, is shared with
the library; clause mutations made there reach both sweeps alike.
"""

from typing import Optional

from modalcoherence.interp import (
    DUAL,
    SHARP_VARIANT,
    STD,
    SoundnessFailure,
    SoundnessReport,
    _all_words,
    check_variant,
    fold,
)
from modalcoherence.quotient import _COLLAPSE, _EXPAND, _collapse_factors, sharp
from modalcoherence.schemas import (
    EquationSchema,
    FVarPat,
    Instance,
    Side,
    build_side,
    get_schema,
)
from modalcoherence import diagram as dg
from modalcoherence.terms import (
    Factor,
    TermError,
    chain_target,
    factors_to_term,
    mirror_factor,
)
from modalcoherence.theories import (
    GEN,
    SHARP,
    TRIV,
    Theory,
    check_admitted,
    enumerate_factor_terms,
    get_theory,
)


def _side_source(schema: EquationSchema, side: Side, bindings: dict) -> str:
    if not side:
        pre, var = schema.identity_word
        return pre + bindings[var]
    pat = side[0]
    if isinstance(pat, FVarPat):
        return pat.prefix + bindings["A"]
    return Factor(pat.prefix, pat.kind,
                  pat.index_pre + bindings[pat.index_var]).src


def instantiate(schema: EquationSchema, word: str,
                inner: Optional[Instance] = None) -> tuple[Instance, Instance]:
    """Concrete (lhs, rhs) instance at index word ``word``, each side as its
    source word and its factors in application order.

    A naturality schema takes its inner arrow ``inner`` as (source word,
    factors), which binds ``A`` and ``B``; ``word`` is then unused.  A
    mirrored schema is the mirror image of its base schema's instance at
    the reversed word.  The sides are not typed here.
    """
    if schema.mirror_of is not None:
        return tuple((src[::-1], [mirror_factor(f) for f in factors])
                     for src, factors in instantiate(get_schema(schema.mirror_of),
                                                     word[::-1]))
    bindings: dict = {"A": word}
    if schema.naturality:
        if inner is None:
            raise TermError(f"schema {schema.id} needs an inner arrow")
        src, factors = inner
        bindings = {"A": src, "B": chain_target(src, factors),
                    "f": tuple(factors)}
    return tuple((_side_source(schema, side, bindings),
                  build_side(side, bindings))
                 for side in (schema.lhs, schema.rhs))


def sharp_image(theory: Theory, src: str, tgt: str,
                factors: list[Factor]) -> dg.RelDiagram:
    # The factors of j_inv(src), then the arrow, then those of j_arrow(tgt).
    conjugated = _collapse_factors(src, _EXPAND)[::-1]
    conjugated += factors
    conjugated += _collapse_factors(tgt, _COLLAPSE)
    image = fold(theory.base.target, STD, sharp(src), conjugated)
    return dg.RelDiagram(image.src_len, image.tgt_len, image.pairs,
                         sharp(src), sharp(tgt))


def _image(theory: Theory, variant: str, src: str, tgt: str,
           factors: list[Factor]) -> dg.Diagram:
    if variant == SHARP_VARIANT or (variant == STD and theory.quotient == SHARP):
        return sharp_image(theory, src, tgt, factors)
    if variant == DUAL and theory.id == "fives":
        mirrored = [mirror_factor(f) for f in factors]
        return dg.mirror(fold(GEN, DUAL, src[::-1], mirrored))
    return fold(theory.target, variant, src, factors)


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
