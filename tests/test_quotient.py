"""Collapse quotients: word normalization, conjugation, skeletons."""

import itertools
import random

import pytest

from modalcoherence import diagram as dg
from modalcoherence.decide import HomQuery, enum_hom, mirror_term, random_term
from modalcoherence.interp import decide_equal, interp
from modalcoherence.quotient import (
    interp_sharp,
    j_arrow,
    j_inv,
    preordering_catalog,
    sharp,
    skeleton,
)
from modalcoherence.schemas import SCHEMAS, instantiate
from modalcoherence.terms import (
    App,
    Comp,
    Gen,
    Id,
    TermError,
    factors_to_term,
    parse_term,
    term_factors,
    term_type,
)
from modalcoherence.theories import get_theory, typecheck


def test_sharp():
    assert sharp("bb") == "b"
    assert sharp("bd") == "bd"
    assert sharp("bbddbd") == "bdbd"
    assert sharp("") == ""
    for word in ("", "b", "dd", "bbdb", "ddbbdd"):
        assert sharp(sharp(word)) == sharp(word)
        collapsed = sharp(word)
        assert all(collapsed[i] != collapsed[i + 1]
                   for i in range(len(collapsed) - 1))


def test_j_arrows_examples():
    t = j_arrow("bb")
    assert term_type(t) == ("bb", "b")
    assert bool(decide_equal("s4_boxdia", t, parse_term("eps_box{b}")))
    assert j_arrow("bd") == parse_term("box(id{d})")
    t = j_inv("dd")
    assert term_type(t) == ("d", "dd")
    assert bool(decide_equal("s4_boxdia", t, parse_term("eps_dia{d}")))
    with pytest.raises(TermError):
        j_arrow("")


def test_j_arrows_mutually_inverse_in_sharp():
    words = ["b", "d", "bb", "dd", "bd", "db", "bbd", "ddb", "bdd",
             "bbdd", "dbbd"]
    for word in words:
        fwd, back = j_arrow(word), j_inv(word)
        assert term_type(fwd) == (word, sharp(word))
        assert term_type(back) == (sharp(word), word)
        assert bool(decide_equal("s4_boxdia_sharp", Comp(fwd, back),
                                 Id(sharp(word))))
        assert bool(decide_equal("s4_boxdia_sharp", Comp(back, fwd), Id(word)))


def _j_arrow_recursive(word):
    """The recursive definition of ``j_arrow``, kept as the reference."""
    if len(word) == 1:
        return Id(word)
    tail = _j_arrow_recursive(word[1:])
    if word[0] != word[1]:
        return App(word[0], tail)
    if word[0] == "b":
        return Comp(tail, Gen("eps_box", word[1:]))
    return Comp(tail, Gen("delta_dd", word[2:]))


def _j_inv_recursive(word):
    """The recursive definition of ``j_inv``, kept as the reference."""
    if len(word) == 1:
        return Id(word)
    tail = _j_inv_recursive(word[1:])
    if word[0] != word[1]:
        return App(word[0], tail)
    if word[0] == "b":
        return Comp(Gen("delta_bb", word[2:]), tail)
    return Comp(Gen("eps_dia", word[1:]), tail)


def test_j_arrows_match_recursive_definitions():
    for n in range(1, 9):
        for letters in itertools.product("bd", repeat=n):
            word = "".join(letters)
            assert j_arrow(word) == _j_arrow_recursive(word)
            assert j_inv(word) == _j_inv_recursive(word)


def test_interp_sharp_is_the_image_of_the_conjugated_term():
    # The sharp frame steps the factors of the collapse arrows directly; the
    # result must be the base image of the term conjugated by them.
    rng = random.Random(71)
    for _ in range(80):
        src = rng.choice(["", "b", "d", "bb", "dd", "bbd", "ddbb", "bdbbd"])
        for tid in ("s4_boxdia", "s42"):
            f = random_term(tid, src, rng.randint(0, 5), rng)
            a, b = term_type(f)
            conj = Comp(j_arrow(b), f) if b else f
            conj = Comp(conj, j_inv(a)) if a else conj
            assert interp_sharp(tid + "_sharp", f).same_as(interp(tid, conj))


def test_collapse_arrows_on_long_words():
    word = "b" * 1500
    assert term_type(j_arrow(word)) == (word, "b")
    assert term_type(j_inv(word)) == ("b", word)
    assert bool(decide_equal("s4_boxdia_sharp", Id(word), Id(word)))
    mixed = "bbd" * 500
    assert term_type(j_arrow(mixed)) == (mixed, sharp(mixed))
    assert term_type(j_inv(mixed)) == (sharp(mixed), mixed)


def test_interp_sharp_values():
    d = interp_sharp("s4_boxdia_sharp", parse_term("eps_box{b}"))
    assert d.same_as(dg.rel_identity(1))
    assert (d.src_word, d.tgt_word) == ("b", "b")
    d = interp_sharp("s4_boxdia_sharp", parse_term("id{bdb}"))
    assert d.same_as(dg.rel_identity(3))
    lhs, rhs = (factors_to_term(*side)
                for side in instantiate(SCHEMAS["commute_box_dia"], ""))
    dl = interp_sharp("s4_boxdia_sharp", lhs)
    dr = interp_sharp("s4_boxdia_sharp", rhs)
    assert sorted(dl.pairs) == [(0, 1), (1, 2)]
    assert sorted(dr.pairs) == [(1, 0), (2, 1)]
    assert not dl.same_as(dr)


def test_interp_sharp_functorial():
    rng = random.Random(61)
    for _ in range(60):
        src = rng.choice(["", "b", "d", "bb", "bd", "db"])
        f = random_term("s4_boxdia", src, rng.randint(0, 3), rng)
        mid = term_type(f)[1]
        g = random_term("s4_boxdia", mid, rng.randint(0, 3), rng)
        whole = interp_sharp("s4_boxdia_sharp", Comp(g, f))
        parts = dg.rel_compose(interp_sharp("s4_boxdia_sharp", g),
                               interp_sharp("s4_boxdia_sharp", f))
        assert whole.same_as(parts)


def test_interp_sharp_relative_faithfulness():
    # Equal conjugated images force equal base images of the conjugates.
    rng = random.Random(67)
    for _ in range(60):
        src = rng.choice(["", "b", "d", "bd"])
        f = random_term("s4_boxdia", src, rng.randint(0, 4), rng)
        g = random_term("s4_boxdia", src, rng.randint(0, 4), rng)
        if term_type(f) != term_type(g):
            continue
        sharp_equal = interp_sharp("s4_boxdia_sharp", f).same_as(
            interp_sharp("s4_boxdia_sharp", g))
        a, b = term_type(f)
        conj_f = Comp(j_arrow(b), Comp(f, j_inv(a))) if a and b else f
        conj_g = Comp(j_arrow(b), Comp(g, j_inv(a))) if a and b else g
        base_equal = interp("s4_boxdia", conj_f).same_as(
            interp("s4_boxdia", conj_g))
        assert sharp_equal == base_equal


def test_collapse_equations_hold_under_sharp():
    for sid in ("triv_eps_box", "triv_eps_dia"):
        for word in ("", "b", "d", "bd", "db"):
            lhs, rhs = (factors_to_term(*side)
                        for side in instantiate(SCHEMAS[sid], word))
            assert bool(decide_equal("s4_boxdia_sharp", lhs, rhs)), (sid, word)
            assert bool(decide_equal("s42_sharp", lhs, rhs)), (sid, word)


def _s42_sharp_failing_pairs(word):
    a = word
    chi = f"chi_db{{{a or 'e'}}}"
    eb = lambda w: f"eps_box{{{w or 'e'}}}"
    ed = lambda w: f"eps_dia{{{w or 'e'}}}"
    pairs = [
        (f"box(dia({eb(a)}))", f"{chi} . {eb('db' + a)}"),
        (f"dia(box({ed(a)}))", f"{ed('bd' + a)} . {chi}"),
        (f"chi_db{{b{a or ''}}} . dia(delta_bb{{{a or 'e'}}}) . {eb('db' + a)}",
         f"id{{bdb{a or ''}}}"),
        (f"{ed('bd' + a)} . box(delta_dd{{{a or 'e'}}}) . chi_db{{d{a or ''}}}",
         f"id{{dbd{a or ''}}}"),
    ]
    return [(parse_term(l), parse_term(r)) for l, r in pairs]


def test_s42_sharp_contrasts():
    for word in ("", "b"):
        for lhs, rhs in _s42_sharp_failing_pairs(word):
            assert typecheck(lhs, "s42") == typecheck(rhs, "s42")
            r = decide_equal("s42_sharp", lhs, rhs)
            assert r.verdict == "not_equal", (str(lhs), str(rhs))


def test_triv_equality_is_by_type():
    lhs, rhs = (factors_to_term(*side)
                for side in instantiate(SCHEMAS["commute_box_dia"], ""))
    assert decide_equal("s4_boxdia_sharp", lhs, rhs).verdict == "not_equal"
    assert bool(decide_equal("s4_boxdia_triv", lhs, rhs))
    for lhs, rhs in _s42_sharp_failing_pairs(""):
        assert bool(decide_equal("s42_triv", lhs, rhs))


def test_skeleton_s4():
    sk = skeleton("s4_boxdia_triv")
    assert len(sk.objects) == 7
    assert len(sk.arrows) == 8
    for arrow in sk.arrows:
        assert typecheck(arrow.label, "s4_boxdia") == (arrow.src, arrow.tgt)
    expected = {
        "b": {"b", "bdb", "db", "bd", "dbd", "d", ""},
        "bdb": {"bdb", "db", "bd", "dbd", "d"},
        "db": {"db", "dbd", "d"},
        "bd": {"bd", "dbd", "d"},
        "dbd": {"dbd", "d"},
        "d": {"d"},
        "": {"", "d"},
    }
    for obj, reach in expected.items():
        assert sk.reaches(obj) == reach, obj


def test_skeleton_s42_and_preorders():
    sk = skeleton("s42_triv")
    assert len(sk.objects) == 5
    for arrow in sk.arrows:
        assert typecheck(arrow.label, "s42") == (arrow.src, arrow.tgt)
    assert skeleton("s5_triv").objects == ("b", "", "d")
    assert skeleton("fives_triv").objects == ("b", "", "d")
    with pytest.raises(TermError):
        skeleton("s5")


def test_skeletons_match_hom_sets():
    # A skeleton object reaches another exactly when the base theory has an
    # arrow between them.  Grouping the words of at most three letters by
    # arrows both ways gives one class per skeleton object.  For s5 and
    # fives the hom-sets are exact, and so are their 3 classes; for
    # s4_boxdia and s42 the hom-sets come from the bounded search at budget
    # 6, so their 7 and 5 classes are bounded by the budget, not theorems:
    # an arrow the search misses could split a class.
    words = ["".join(w) for n in range(4)
             for w in itertools.product("bd", repeat=n)]
    for tid, count in (("s4_boxdia_triv", 7), ("s42_triv", 5),
                       ("s5_triv", 3), ("fives_triv", 3)):
        sk = skeleton(tid)
        base = get_theory(tid).base.id
        arrow = {(a, b): len(enum_hom(HomQuery(base, a, b, 6))) > 0
                 for a in words for b in words}
        for a in sk.objects:
            assert sk.reaches(a) == {b for b in sk.objects if arrow[a, b]}, (tid, a)
        classes: list[list[str]] = []
        for w in words:
            for cls in classes:
                if arrow[w, cls[0]] and arrow[cls[0], w]:
                    cls.append(w)
                    break
            else:
                classes.append([w])
        assert len(classes) == count, tid
        assert all(sum(o in cls for o in sk.objects) == 1 for cls in classes), tid


def test_skeleton_json():
    import json

    payload = json.loads(skeleton("s5_triv").to_json())
    assert payload["objects"] == ["b", "e", "d"]
    assert len(payload["arrows"]) == 2


def test_preordering_catalog():
    cat = preordering_catalog("s5")
    assert len(cat) == 6
    first_lhs, first_rhs = cat[0]
    assert first_lhs == parse_term("box(eps_box{e})")
    assert first_rhs == parse_term("eps_box{b}")
    for lhs, rhs in cat:
        assert term_type(lhs) == term_type(rhs)
        assert decide_equal("s5", lhs, rhs).verdict == "not_equal"
    for lhs, rhs in preordering_catalog("s5", "db"):
        assert term_type(lhs) == term_type(rhs)
        assert decide_equal("s5", lhs, rhs).verdict == "not_equal"
    for lhs, rhs in preordering_catalog("fives"):
        assert term_type(lhs) == term_type(rhs)
        assert decide_equal("fives", lhs, rhs).verdict == "not_equal"
    # The fives catalog is the mirror image of the s5 one at the reversed
    # word.
    for word in ("", "b", "d", "bd", "db", "bdd"):
        fives = preordering_catalog("fives", word)
        s5 = preordering_catalog("s5", word[::-1])
        for (lhs, rhs), (base_lhs, base_rhs) in zip(fives, s5, strict=True):
            assert term_factors(lhs) == term_factors(mirror_term(base_lhs))
            assert term_factors(rhs) == term_factors(mirror_term(base_rhs))
    with pytest.raises(TermError):
        preordering_catalog("s4_boxdia")


def test_preordering_equations_hold_in_preorder():
    for theory, word in itertools.product(("s5_triv",), ("", "b", "d")):
        for lhs, rhs in preordering_catalog(theory, word):
            assert bool(decide_equal(theory, lhs, rhs))
