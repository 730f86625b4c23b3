"""Realizability, synthesis, hom enumeration, and the mirror isomorphism."""

import itertools
import math
import random
import time

import pytest

from modalcoherence import diagram as dg
from modalcoherence.decide import (
    HomQuery,
    HomResult,
    SYNTHESIS_THEORIES,
    SynthesisError,
    _PARTNERS,
    _bounded_search,
    _enum_spliteq,
    enum_hom,
    mirror_term,
    random_term,
    realizable,
    synthesize,
)
from modalcoherence.interp import decide_equal, interp
from modalcoherence.rewrite import normalize
from modalcoherence.simplicial import finmap
from modalcoherence.terms import TermError, parse_term, rev_word, term_type
from modalcoherence.theories import get_theory


def S(i):
    return ("s", i)


def T(j):
    return ("t", j)


def test_realizable_examples():
    graph = finmap(3, 2, [0, 0, 1]).graph("ddd", "dd")
    assert realizable("s4_dia", graph)
    crossing = dg.spliteq(2, 2, [[S(0), T(1)], [S(1), T(0)]], "dd", "dd")
    assert not realizable("s5", crossing)
    lone_box = dg.spliteq(0, 1, [[T(0)]], "", "b")
    assert not realizable("fives", lone_box)
    assert not realizable("s5", dg.spliteq(0, 1, [[T(0)]], "", "b"))
    # A diamond-headed singleton target is fine.
    assert realizable("s5", dg.spliteq(0, 1, [[T(0)]], "", "d"))
    # A relation is never the image of a split-equivalence theory.
    assert not realizable("s5", dg.rel_identity(1, "d"))
    assert not realizable("fives", dg.rel_identity(1, "d"))


def test_realizable_needs_words():
    with pytest.raises(SynthesisError):
        realizable("s4_dia", dg.rel(1, 1, [(0, 0)]))


def test_synthesize_examples():
    t = synthesize("s4_dia", finmap(2, 1, [0, 0]).graph("dd", "d"))
    assert str(t) == "delta_dd{e}"
    t = synthesize("s4_dia", dg.rel_identity(3, "ddd"))
    assert str(t) == "id{ddd}"
    d = dg.spliteq(2, 2, [[S(0), S(1), T(0), T(1)]], "db", "bb")
    t = synthesize("s5", d)
    assert interp("s5", t).same_as(d)
    assert bool(decide_equal("s5", t, parse_term("box(delta_db{e}) . delta_bd{b}")))


def test_synthesize_rejects_unrealizable():
    with pytest.raises(SynthesisError):
        synthesize("s4_dia", dg.rel(2, 2, [(0, 1), (1, 0)], "dd", "dd"))
    with pytest.raises(SynthesisError):
        synthesize("s5", dg.spliteq(2, 2, [[S(0), T(1)], [S(1), T(0)]],
                                    "dd", "dd"))
    with pytest.raises(SynthesisError):
        synthesize("s4_dia", dg.spliteq(1, 1, [[S(0), T(0)]], "d", "d"))
    with pytest.raises(SynthesisError):
        synthesize("s5", dg.rel_identity(1, "d"))


def test_synthesis_round_trip_random():
    rng = random.Random(17)
    words = ["", "b", "d", "bb", "dd", "bd", "db", "bdb", "dbd"]
    for tid in sorted(SYNTHESIS_THEORIES):
        for _ in range(120):
            t = random_term(tid, rng.choice(words), rng.randint(0, 6), rng)
            image = interp(tid, t)
            rebuilt = synthesize(tid, image)
            assert interp(tid, rebuilt).same_as(image)
            assert bool(decide_equal(tid, rebuilt, t))


def test_synthesis_deterministic():
    rng = random.Random(23)
    for _ in range(40):
        t = random_term("s5", rng.choice(["bd", "db", "bdb"]),
                        rng.randint(1, 5), rng)
        image = interp("s5", t)
        assert synthesize("s5", image) == synthesize("s5", image)


def test_enum_hom_counts_monotone():
    for m in range(6):
        for n in range(6):
            count = len(enum_hom(HomQuery("s4_dia", "d" * m, "d" * n)))
            expected = 1 if m == 0 else math.comb(m + n - 1, m)
            assert count == expected, (m, n)


def test_enum_hom_counts_functions():
    for m in range(5):
        for n in range(5):
            count = len(enum_hom(HomQuery("s4_dia_chi", "d" * m, "d" * n)))
            expected = n ** m if m else 1
            assert count == expected, (m, n)


def test_enum_hom_box_side_by_duality():
    for m in range(4):
        for n in range(4):
            box_count = len(enum_hom(HomQuery("s4_box", "b" * m, "b" * n)))
            expected = 1 if n == 0 else math.comb(m + n - 1, n)
            assert box_count == expected, (m, n)


def test_enum_hom_empty_and_witnesses():
    assert len(enum_hom(HomQuery("s5", "", "b"))) == 0
    result = enum_hom(HomQuery("s4_dia", "dd", "dd"))
    assert len(result) == 3
    for d in result.diagrams:
        witness = result.witnesses[d.key()]
        assert interp("s4_dia", witness).same_as(d)


def test_enum_hom_bounded_search_kuratowski():
    result = enum_hom(HomQuery("s4_boxdia", "bdb", "dbd", 6))
    assert not result.complete
    assert len(result) == 2
    keys = sorted(tuple(sorted(d.pairs)) for d in result.diagrams)
    assert keys == [((0, 1), (1, 2)), ((1, 0), (2, 1))]
    for d in result.diagrams:
        witness = result.witnesses[d.key()]
        assert interp("s4_boxdia", witness).same_as(d)


def test_enum_hom_bounded_search_budget():
    assert len(enum_hom(HomQuery("s4_boxdia", "bdb", "bdb", 0))) == 1
    assert len(enum_hom(HomQuery("s4_boxdia", "bdb", "dbd", 0))) == 0
    with pytest.raises(ValueError, match="non-negative"):
        HomQuery("s4_boxdia", "bdb", "dbd", -1)
    with pytest.raises(ValueError):
        realizable("s41", dg.rel_identity(1, "b"), budget=-1)


def test_hom_query_checks_its_words():
    # A bad word is bad input, not an empty hom-set or a synthesis failure.
    for theory, src, tgt in (("s5", "bx", "b"), ("fives", "bd", "q")):
        with pytest.raises(TermError, match="bad modality word") as caught:
            HomQuery(theory, src, tgt)
        assert not isinstance(caught.value, SynthesisError)


def test_bounded_search_needs_a_relational_base():
    # s5 and fives are enumerated exactly; searching their split
    # equivalences by relation tables would be wrong, so it raises.
    for tid in ("s5", "fives"):
        q = HomQuery(tid, "b", "b")
        with pytest.raises(TermError, match="relational"):
            _bounded_search(get_theory(tid), q, HomResult(q))


def test_enum_hom_spliteq_matches_term_search():
    # The structural split-equivalence enumeration agrees with a bounded
    # generator walk at small size.
    for src, tgt in [("", ""), ("b", "d"), ("d", "d"), ("db", "b"),
                     ("bd", "bd"), ("b", "bb")]:
        structural = {d.key() for d in enum_hom(HomQuery("s5", src, tgt)).diagrams}
        from modalcoherence.theories import enumerate_factor_terms
        from modalcoherence.terms import factors_to_term

        searched = set()
        for factors in enumerate_factor_terms("s5", src, 5):
            t = factors_to_term(src, factors)
            if term_type(t)[1] == tgt:
                searched.add(interp("s5", t).key())
        assert searched <= structural
        assert searched == structural, (src, tgt)


def _set_partitions(elems):
    """Every set partition of ``elems``, noncrossing or not."""
    if not elems:
        yield []
        return
    head, rest = elems[0], elems[1:]
    for part in _set_partitions(rest):
        yield [[head]] + part
        for k in range(len(part)):
            yield part[:k] + [[head] + part[k]] + part[k + 1:]


def _boundary_partitions(m, n):
    boundary = [S(i) for i in range(m)] + [T(j) for j in range(n)]
    every = (dg.spliteq(m, n, part) for part in _set_partitions(boundary))
    return [d for d in every if dg.is_noncrossing(d)]


def test_enum_hom_spliteq_matches_brute_force():
    # Every split equivalence of the boundary, kept when it is noncrossing
    # and realizable, for every word pair with at most six boundary points.
    for points in range(7):
        for m in range(points + 1):
            n = points - m
            shapes = _boundary_partitions(m, n)
            for src in map("".join, itertools.product("bd", repeat=m)):
                for tgt in map("".join, itertools.product("bd", repeat=n)):
                    labelled = [dg.SplitEq(m, n, d.classes, src, tgt)
                                for d in shapes]
                    for tid in ("s5", "fives"):
                        brute = sorted(d.key() for d in labelled
                                       if realizable(tid, d))
                        got = [d.key() for d in
                               enum_hom(HomQuery(tid, src, tgt)).diagrams]
                        assert got == brute, (tid, src, tgt)


def test_enum_hom_spliteq_counts():
    for word, count in (("bdbd", 23), ("bdbdb", 90), ("bdbdbd", 336),
                        ("bdbdbdb", 1377)):
        for tid in ("s5", "fives"):
            result = enum_hom(HomQuery(tid, word, word))
            assert result.complete
            assert len(result) == count, (tid, word)


def test_enum_spliteq_on_long_words():
    # Segments nest once per boundary point; the generator must not recurse.
    for src, tgt in (("b" * 1500, ""), ("", "d" * 1500)):
        (only,) = _enum_spliteq(src, tgt)
        assert all(len(cls) == 1 for cls in only.classes)


def test_enum_hom_long_word_synthesizes_in_linear_time():
    # One arrow, whose witness is checked for planarity once.  A check of
    # every pair of classes against the whole boundary (cubic) took about
    # ten seconds here; a linear scan takes a fraction of one.
    start = time.perf_counter()
    result = enum_hom(HomQuery("s5", "b" * 600, ""))
    assert time.perf_counter() - start < 5
    assert result.complete and len(result) == 1


@pytest.mark.parametrize("theory", ["s5", "fives"])
@pytest.mark.parametrize("n", [200, 600])
def test_enum_hom_skips_segments_without_a_marked_point(theory, n):
    # One arrow: every point joins the target diamond, the only marked one.
    # A segment without a marked point has no partition and is skipped;
    # trying each one is quartic in n and took half a minute at n = 200.
    start = time.perf_counter()
    result = enum_hom(HomQuery(theory, "d" * n, "d"))
    assert time.perf_counter() - start < 5
    assert result.complete and len(result) == 1


def test_mirror_term_examples():
    t = mirror_term(parse_term("delta_bd{e}"))
    assert str(t) == "sigma_db{e}"
    assert term_type(t) == ("d", "db")
    assert str(mirror_term(parse_term("id{bd}"))) == "id{db}"
    back = mirror_term(t, source="fives")
    assert bool(decide_equal("s5", back, parse_term("delta_bd{e}")))


def test_mirror_term_random():
    rng = random.Random(29)
    words = ["", "b", "d", "bd", "db", "bdb", "dbd"]
    for _ in range(200):
        t = random_term("s5", rng.choice(words), rng.randint(0, 6), rng)
        src, tgt = term_type(t)
        m = mirror_term(t, source="s5")
        assert term_type(m) == (rev_word(src), rev_word(tgt))
        assert interp("fives", m).same_as(dg.mirror(interp("s5", t)))
        roundtrip = mirror_term(m, source="fives")
        assert bool(decide_equal("s5", roundtrip, t))


def test_mirror_term_rejects_wrong_generators():
    from modalcoherence.terms import TermError

    with pytest.raises(TermError):
        mirror_term(parse_term("sigma_db{e}"), source="s5")
    with pytest.raises(TermError):
        mirror_term(parse_term("delta_bd{e}"), source="fives")


def test_mirror_and_dual_tables():
    from modalcoherence.terms import (
        DUAL_KIND,
        MIRROR_KIND,
        dual_factors,
        dualize,
        mirror_factor,
        term_factors,
    )

    for table in (MIRROR_KIND, DUAL_KIND):
        assert all(table[image] == kind for kind, image in table.items())
    s5, fives = get_theory("s5").generators, get_theory("fives").generators
    assert set(MIRROR_KIND) == s5 | fives
    assert {MIRROR_KIND[k] for k in s5} == fives
    assert {MIRROR_KIND[k] for k in fives} == s5
    dual_pairs = {box: entry[0] for box, entry in _PARTNERS.items()
                  if box != "fives"}
    for box, dia in dual_pairs.items():
        assert ({DUAL_KIND[k] for k in get_theory(box).generators}
                == get_theory(dia).generators)
    rng = random.Random(71)
    for tid in ("s5", "fives", *dual_pairs):
        for _ in range(40):
            t = random_term(tid, rng.choice(["", "b", "d", "bd", "db"]),
                            rng.randint(0, 6), rng)
            factors = term_factors(t)[2]
            assert term_factors(dualize(t))[2] == dual_factors(factors)
            if tid in ("s5", "fives"):
                assert term_factors(mirror_term(t, source=tid))[2] == [
                    mirror_factor(f) for f in factors]


def test_synthesize_interp_identity_property():
    # Composing the two directions is the identity on diagrams and the
    # equality class of terms.
    rng = random.Random(31)
    for tid in ("s4_dia", "s4_box", "s4_boxdia", "s42", "s5", "fives"):
        for _ in range(50):
            t = random_term(tid, rng.choice(["", "b", "d", "bd", "db"]),
                            rng.randint(0, 5), rng)
            image = interp(tid, t)
            again = synthesize(tid, image)
            assert interp(tid, again).same_as(image)
            assert bool(decide_equal(tid, again, t))


def test_enum_hom_quotients():
    from modalcoherence.terms import TermError

    # Under the conjugated functor the two commutation composites collapse
    # the repeated-operator structure but remain two distinct arrows.
    result = enum_hom(HomQuery("s4_boxdia_sharp", "bdb", "dbd", 6))
    assert len(result) == 2
    # Words with repeated operators identify with their collapsed forms.
    result = enum_hom(HomQuery("s4_boxdia_sharp", "bb", "b", 4))
    assert len(result) == 1
    with pytest.raises(TermError):
        enum_hom(HomQuery("s5_triv", "b", "d"))


def test_dualize_types_in_the_dual_theory():
    from modalcoherence.terms import dualize
    from modalcoherence.theories import typecheck

    rng = random.Random(43)
    for tid, dual in (("t_box", "t_dia"), ("s4_box", "s4_dia"),
                      ("s4_box_chi", "s4_dia_chi"), ("s42", "s42"),
                      ("s5", "s5")):
        for _ in range(25):
            t = random_term(tid, rng.choice(["", "b", "d", "bd"]),
                            rng.randint(0, 4), rng)
            typecheck(dualize(t), dual)


def test_enum_hom_structural_matches_bounded_search():
    # The structural enumerations agree with an exhaustive generator walk.
    from modalcoherence.theories import enumerate_factor_terms
    from modalcoherence.terms import factors_to_term

    cases = [
        ("s4_dia", "dd", "dd", 4), ("s4_dia", "ddd", "d", 4),
        ("s4_dia", "d", "ddd", 4),
        ("t_dia", "d", "ddd", 4), ("k4_dia", "ddd", "d", 4),
        ("s4_dia_chi", "dd", "dd", 5), ("s_chi", "bbb", "b", 5),
        ("s4_box", "bb", "bb", 4), ("fives", "db", "bd", 5),
    ]
    for tid, src, tgt, depth in cases:
        structural = {d.key() for d in enum_hom(HomQuery(tid, src, tgt)).diagrams}
        walked = set()
        for factors in enumerate_factor_terms(tid, src, depth):
            t = factors_to_term(src, factors)
            if term_type(t)[1] == tgt:
                walked.add(interp(tid, t).key())
        assert walked == structural, (tid, src, tgt)


def test_normalize_agrees_with_synthesize():
    rng = random.Random(37)
    for _ in range(50):
        t = random_term("s5", rng.choice(["", "b", "d", "bd"]),
                        rng.randint(0, 5), rng)
        assert normalize("s5", t) == synthesize("s5", interp("s5", t))
