"""The schema registry's symmetry: the dual and the mirror, and the schemas
derived by them from the tables ``_DUALS`` and ``_MIRRORS``."""

import pytest

from modalcoherence.schemas import (
    _DUALS,
    _MIRRORS,
    SCHEMAS,
    _dual,
    _mirror,
    instantiate,
)
from modalcoherence.terms import (
    MIRROR_KIND,
    Factor,
    chain_target,
    dual_factors,
    mirror_factor,
    swap_word,
)
from modalcoherence.theories import get_theory

PATTERN = [sid for sid, schema in SCHEMAS.items() if schema.pattern_based]
DERIVED = [sid for sid, _ in _DUALS + _MIRRORS]
HAND_WRITTEN = [sid for sid in PATTERN if sid not in DERIVED]
# Inner arrows for the naturality instances, as (source word, factors).
ARROWS = [("b", [Factor("", "eps_box", "")]),
          ("dd", [Factor("d", "delta_bd", ""), Factor("", "chi_db", "d")])]


def _registered(lhs, rhs, identity_word, ids):
    """The ids of the schemas with these sides, as given or exchanged."""
    return ([sid for sid in ids if (SCHEMAS[sid].lhs, SCHEMAS[sid].rhs,
                                    SCHEMAS[sid].identity_word)
             == (lhs, rhs, identity_word)],
            [sid for sid in ids if (SCHEMAS[sid].rhs, SCHEMAS[sid].lhs,
                                    SCHEMAS[sid].identity_word)
             == (lhs, rhs, identity_word)])


def _dual_partner(sid):
    """The registered dual of a schema and whether its sides are
    exchanged."""
    image = _dual(SCHEMAS[sid], sid)
    same, exchanged = _registered(image.lhs, image.rhs, image.identity_word,
                                  PATTERN)
    assert same or exchanged, f"the dual of {sid} is not registered"
    return (same[0], False) if same else (exchanged[0], True)


def test_every_pattern_schemas_dual_is_registered():
    for sid in PATTERN:
        _dual_partner(sid)
        # The dual is an involution.
        assert _dual(_dual(SCHEMAS[sid], sid), sid) == SCHEMAS[sid]


def test_every_s5_schemas_mirror_is_a_fives_schema_in_the_same_orientation():
    fives = get_theory("fives").equations
    for sid in get_theory("s5").equations:
        image = _mirror(SCHEMAS[sid], sid)
        same, _ = _registered(image.lhs, image.rhs, image.identity_word,
                              fives)
        assert same, f"the mirror of {sid} is not a fives schema"


def test_derivation_tables():
    assert len(_DUALS) == 21 and len(_MIRRORS) == 18
    assert len(DERIVED) == len(set(DERIVED)) == 39
    mirrored = {sid for sid, _ in _MIRRORS}
    assert mirrored == set(get_theory("fives").equations) - set(
        get_theory("s5").equations)
    # A dual's source is hand-written; a mirror's is an s5 schema, either
    # hand-written or a dual, so no derived schema is more than two maps
    # from a hand-written one.
    for _, source in _DUALS:
        assert source in HAND_WRITTEN
    for _, source in _MIRRORS:
        assert source in get_theory("s5").equations
        assert source not in mirrored
    for table, image in ((_DUALS, _dual), (_MIRRORS, _mirror)):
        for sid, source in table:
            assert SCHEMAS[sid] == image(SCHEMAS[source], sid)


def _dual_side(side):
    src, factors = side
    return swap_word(chain_target(src, factors)), dual_factors(factors)


@pytest.mark.parametrize("sid", PATTERN)
def test_dual_schema_instances_are_dual_factor_lists(sid):
    # The pattern map agrees with terms.dual_factors on instances: the dual
    # of an instance is the partner's instance at the swapped word (with
    # the dual inner arrow).
    partner, exchanged = _dual_partner(sid)
    schema = SCHEMAS[sid]
    cases = ([(src, arrow) for src, arrow in ARROWS] if schema.naturality
             else [(word, None) for word in ("", "b", "db")])
    for word, arrow in cases:
        lhs, rhs = instantiate(schema, word, arrow and (word, arrow))
        dual_arrow = arrow and _dual_side((word, arrow))
        want = instantiate(SCHEMAS[partner], swap_word(word), dual_arrow)
        if exchanged:
            want = want[::-1]
        assert (_dual_side(lhs), _dual_side(rhs)) == want


@pytest.mark.parametrize("sid", [
    sid for sid in PATTERN if not SCHEMAS[sid].naturality
    and all(p.kind in MIRROR_KIND for p in SCHEMAS[sid].lhs + SCHEMAS[sid].rhs)])
def test_mirror_schema_instances_are_mirrored_instances(sid):
    # The mirror of an instance at index word w is the image's instance at
    # index e under the context w reversed.  Every schema whose kinds have
    # mirrors is tried, registered image or not.  (A naturality schema's
    # mirror would carry its inner arrow in the index, which the pattern
    # language cannot say; its image is the same law with the arrow in the
    # prefix.)
    image = _mirror(SCHEMAS[sid], sid)
    for word in ("", "b", "db", "bdd"):
        context = word[::-1]
        got = [(src[::-1], [mirror_factor(f) for f in factors])
               for src, factors in instantiate(SCHEMAS[sid], word)]
        want = [(context + src,
                 [Factor(context + f.prefix, f.kind, f.index)
                  for f in factors])
                for src, factors in instantiate(image, "")]
        assert got == want
