"""Rewriting: developed forms, normal forms, proof search, confluence."""

import random
from dataclasses import replace

import pytest

from modalcoherence import rewrite
from modalcoherence.interp import decide_equal, interp
from modalcoherence.decide import random_term
from modalcoherence.rewrite import (
    SoundnessViolation,
    confluence_check,
    develop,
    directed_normalize,
    normalize,
    prove_equal_bounded,
)
from modalcoherence.schemas import SCHEMAS, build_side, instantiate, match_side
from modalcoherence.terms import (
    Factor,
    Id,
    TermError,
    TypingError,
    chain_target,
    factors_to_term,
    parse_term,
    term_factors,
    term_size,
    term_type,
)
from modalcoherence.theories import REGISTRY, enumerate_factor_terms


def test_develop():
    assert develop(parse_term("id{b}")) == Id("b")
    t = parse_term("box(eps_box{b} . delta_bb{e})")
    assert str(develop(t)) == "box(eps_box{b}) . box(delta_bb{e})"
    rng = random.Random(13)
    for _ in range(50):
        t = random_term("s5", rng.choice(["", "b", "d", "bd"]),
                        6, rng)
        d = develop(t)
        assert term_size(d) == term_size(t)
        assert bool(decide_equal("s5", d, t))


def test_normalize_slide_example():
    t = parse_term("eps_box{b} . box(eps_box{b})")
    nf = normalize("t_box", t)
    assert str(nf) == "eps_box{b} . eps_box{bb}"
    assert normalize("t_box", nf) == nf
    assert bool(decide_equal("t_box", t, nf))


def test_normalize_identity():
    assert str(normalize("s4_box", parse_term("id{b}"))) == "id{b}"


def test_normalize_requires_declared_theory():
    with pytest.raises(TermError):
        normalize("s41", parse_term("id{b}"))
    with pytest.raises(TermError):
        normalize("s5_triv", parse_term("id{b}"))


@pytest.mark.parametrize("tid", ["t_box", "t_dia", "k4_box", "k4_dia",
                                 "s4_box", "s4_dia", "s4_boxdia", "s_chi",
                                 "splus_chi_op", "s4_box_chi", "s4_dia_chi",
                                 "s4_boxdia_chi", "s42", "s5", "fives"])
def test_normalize_sound_and_idempotent(tid):
    rng = random.Random(hash(tid) % 1000)
    for _ in range(40):
        t = random_term(tid, rng.choice(["", "b", "d", "bd", "db"]),
                        rng.randint(0, 5), rng)
        nf = normalize(tid, t)
        assert bool(decide_equal(tid, t, nf))
        assert normalize(tid, nf) == nf


def test_normalize_splus_chi_op_large_walk_regression():
    # A 256-generator walk whose normal form has over 2,000 factors:
    # verifying and printing it must not recurse once per composition.
    term = random_term("splus_chi_op", "bbbb", 256, random.Random(2))
    nf = normalize("splus_chi_op", term)
    assert interp("splus_chi_op", nf).same_as(interp("splus_chi_op", term))
    assert str(parse_term(str(nf))) == str(nf)


def test_normalize_canonical_on_equality_classes():
    # Two terms are equal exactly when their normal forms coincide.
    rng = random.Random(41)
    for tid in ("t_box", "s4_dia", "s5"):
        seen = {}
        for _ in range(120):
            t = random_term(tid, rng.choice(["", "b", "d", "bd", "db"]),
                            rng.randint(0, 4), rng)
            image = interp(tid, t)
            key = (term_type(t), image.key())
            nf = normalize(tid, t)
            if key in seen:
                assert seen[key] == nf
            seen[key] = nf


def test_normalize_t_box_exhaustive():
    # Idempotence, and identical normal forms exactly on equal images.
    by_key = {}
    for src in ("b" * k for k in range(5)):
        for factors in enumerate_factor_terms("t_box", src, 4):
            t = factors_to_term(src, factors)
            nf = normalize("t_box", t)
            assert normalize("t_box", nf) == nf
            key = (src, interp("t_box", t).key())
            if key in by_key:
                assert by_key[key] == nf
            by_key[key] = nf


def test_confluence_t_box():
    report = confluence_check("t_box", 5)
    assert report.confluent
    assert report.terms_checked > 500
    # Normal forms are in bijection with the images on each hom-set.
    for (src, tgt), forms in report.normal_forms.items():
        images = {interp("t_box", factors_to_term(src, list(f))).key()
                  for f in forms}
        assert len(images) == len(forms)


def test_confluence_single_generator_vacuous():
    report = confluence_check("t_box", 1)
    assert report.confluent


def test_prove_trivial_and_axiom():
    f = parse_term("delta_bd{e}")
    result = prove_equal_bounded("s5", f, f)
    assert result.proved and len(result.steps) == 0
    lhs = parse_term("box(delta_db{e}) . delta_bd{b}")
    rhs = parse_term("delta_bb{e} . delta_db{e}")
    result = prove_equal_bounded("s5", lhs, rhs)
    assert result.proved
    assert result.to_json().startswith("[")


def test_prove_reproduces_comultiplication_redundancy():
    # With the mixed-associativity axioms removed, the interaction laws and
    # triangle laws still derive them, in at most eight steps.
    reduced = replace(
        REGISTRY["s5"], id="s5_no_assoc",
        equations=tuple(e for e in REGISTRY["s5"].equations
                        if not e.startswith("assoc_")))
    for m in "bd":
        lhs, rhs = (factors_to_term(*side)
                    for side in instantiate(SCHEMAS["assoc_delta_b" + m], ""))
        result = prove_equal_bounded(reduced, lhs, rhs, depth=8)
        assert result.proved and 0 < len(result.steps) <= 8, (m, result)
        lhs, rhs = (factors_to_term(*side)
                    for side in instantiate(SCHEMAS["assoc_delta_d" + m], ""))
        result = prove_equal_bounded(reduced, lhs, rhs, depth=8)
        assert result.proved and 0 < len(result.steps) <= 8, (m, result)


def test_prove_unknown_on_unequal_images():
    lhs, rhs = (factors_to_term(*side)
                for side in instantiate(SCHEMAS["commute_box_dia"], ""))
    result = prove_equal_bounded("s4_boxdia", lhs, rhs, depth=8)
    assert not result.proved and result.refuted
    assert not interp("s4_boxdia", lhs).same_as(interp("s4_boxdia", rhs))


# Equal diagrams, but no derivation within the default size slack 2: the
# cap drops the rewrites a derivation needs, and slack 3 finds one.
_CHI_PAIR = (parse_term("box(delta_bb{e}) . chi_bb{e}"),
             parse_term("chi_bb{b} . box(chi_bb{e}) . delta_bb{b}"))


def test_prove_unknown_is_not_refuted():
    lhs, rhs = _CHI_PAIR
    for tid in ("splus_chi_op", "s4_box_chi", "s4_boxdia_chi"):
        assert interp(tid, lhs).same_as(interp(tid, rhs))
        result = prove_equal_bounded(tid, lhs, rhs)
        assert not result.proved and not result.refuted, tid
        assert result.reason == "size_cap" and result.to_json() == "null"
        result = prove_equal_bounded(tid, lhs, rhs, size_slack=3)
        assert result.proved and result.reason == "proved", tid
        assert len(result.steps) == 4


def test_capped_matches_leave_long_insertions_unbuilt():
    # With a size cap, each identity insertion and each segment rewrite
    # past it comes unbuilt, in its place; every other match is the one the
    # uncapped scan gives.
    lhs, _ = _CHI_PAIR
    src, _, spine = term_factors(lhs)
    search = rewrite._tables(REGISTRY["s4_box_chi"]).search
    segments = 0
    for state in (tuple(spine), tuple(spine) * 2):
        for cap in (len(state), len(state) + 1, len(state) + 2):
            uncapped = list(rewrite._matches(search, src, state))
            capped = list(rewrite._matches(search, src, state, cap))
            assert [m for m, _ in capped] == [m for m, _ in uncapped]
            unbuilt = 0
            for (m, match), (_, full) in zip(capped, uncapped):
                if match is None:
                    assert len(full[0]) > cap
                    unbuilt += 1
                    segments += bool(m.frm)
                else:
                    assert match == full
            assert unbuilt == sum(len(full[0]) > cap for _, full in uncapped)
            assert unbuilt > 0 or cap > len(state)
    assert segments > 0


def test_cap_holds_without_the_length_prediction(monkeypatch):
    # The search drops a built state past the cap even when the prediction
    # that skips building it says otherwise.
    lhs, rhs = _CHI_PAIR
    monkeypatch.setattr(rewrite, "_built_length", lambda side, bindings: 0)
    result = prove_equal_bounded("s4_box_chi", lhs, rhs)
    assert result.reason == "size_cap"
    result = prove_equal_bounded("s4_box_chi", lhs, rhs, size_slack=3)
    assert result.proved and len(result.steps) == 4


def test_prove_reasons_of_unknown_results():
    lhs, rhs = _CHI_PAIR
    # No step budget: the frontiers still hold their roots.
    assert prove_equal_bounded("splus_chi_op", lhs, rhs,
                               depth=0).reason == "depth"
    # Without equations no state has a rewrite, so none is dropped.
    bare = replace(REGISTRY["s4_box"], id="s4_box_bare", equations=())
    lhs, rhs = (factors_to_term(*side)
                for side in instantiate(SCHEMAS["assoc_delta_bb"], ""))
    result = prove_equal_bounded(bare, lhs, rhs)
    assert not result.proved and not result.refuted
    assert result.reason == "exhausted"


def test_prove_rejects_negative_budgets():
    lhs, rhs = _CHI_PAIR
    with pytest.raises(ValueError, match="depth must be non-negative"):
        prove_equal_bounded("splus_chi_op", lhs, rhs, depth=-1)
    with pytest.raises(ValueError, match="size_slack must be non-negative"):
        prove_equal_bounded("splus_chi_op", lhs, rhs, size_slack=-1)


# An instance of delta_chi_bb: the greedy strategy rewrites the right side
# into the left one, building a side that contains chi_bb.
_DELTA_CHI = (parse_term("delta_bb{b} . chi_bb{e}"),
              parse_term("box(chi_bb{e}) . chi_bb{b} . box(delta_bb{e})"))


def _drop_chi(side, bindings):
    # chi_bb is an endomorphism, so dropping it keeps every list well-typed.
    return [f for f in build_side(side, bindings) if f.kind != "chi_bb"]


def test_guard_detects_a_rewrite_that_changes_the_image(monkeypatch):
    lhs, rhs = _DELTA_CHI
    assert prove_equal_bounded("s4_box_chi", lhs, rhs).proved
    monkeypatch.setattr(rewrite, "build_side", _drop_chi)
    with pytest.raises(SoundnessViolation, match="broke the interpretation") as info:
        prove_equal_bounded("s4_box_chi", lhs, rhs)
    src, tgt, _ = term_factors(lhs)
    bad = list(info.value.candidate)
    assert chain_target(src, bad) == tgt
    assert not interp("s4_box_chi", factors_to_term(src, bad)).same_as(
        interp("s4_box_chi", lhs))


def test_guard_rejects_an_ill_typed_rewrite(monkeypatch):
    def stray_counit(side, bindings):
        return build_side(side, bindings) + [Factor("", "eps_box", "")]

    lhs, rhs = _DELTA_CHI
    monkeypatch.setattr(rewrite, "build_side", stray_counit)
    with pytest.raises(SoundnessViolation, match="ill-typed") as info:
        prove_equal_bounded("s4_box_chi", lhs, rhs)
    with pytest.raises(TypingError):
        chain_target(term_factors(lhs)[0], info.value.candidate)


def test_prove_requires_same_type():
    with pytest.raises(TermError):
        prove_equal_bounded("s4_box", parse_term("eps_box{e}"),
                            parse_term("delta_bb{e}"))


def _unanchored_rewrites(theory, factors):
    # Every schema side tried at every position under every strip depth,
    # without anchors or kind codes.
    for sid in theory.equations:
        for direction in ("lr", "rl"):
            schema = SCHEMAS[sid]
            if schema.mirror_of is not None:
                continue
            frm, to = ((schema.lhs, schema.rhs) if direction == "lr"
                       else (schema.rhs, schema.lhs))
            if not frm:
                continue
            for i in range(len(factors) - len(frm) + 1):
                segment = factors[i:i + len(frm)]
                for s in range(len(segment[0].prefix) + 1):
                    outer = segment[0].prefix[:s]
                    bindings = match_side(frm, segment, outer=outer)
                    if bindings is not None:
                        new = [Factor(outer + g.prefix, g.kind, g.index)
                               for g in build_side(to, bindings)]
                        yield (factors[:i] + tuple(new)
                               + factors[i + len(frm):],
                               sid, direction, i, s)


def test_kind_code_scan_finds_every_segment_rewrite():
    from modalcoherence.rewrite import rewrites

    rng = random.Random(14)
    for tid in ("s5", "fives", "s4_boxdia_chi", "splus_chi_op", "s41"):
        theory = REGISTRY[tid]
        for _ in range(30):
            term = random_term(tid, rng.choice(["", "b", "d", "bd", "db"]),
                               rng.randint(0, 6), rng)
            src, _, factors = term_factors(term)
            factors = tuple(factors)
            found = [(new, s.schema_id, s.direction, s.position, s.strip)
                     for new, s in rewrites(theory, src, factors)
                     if s.replaced]
            assert found == list(_unanchored_rewrites(theory, factors))


def test_pair_match_agrees_with_the_segment_scan():
    # The naturality sort matches an adjacent pair straight, at position 0;
    # the kind-code scan over the pair gives the same match list.
    for tid in ("s5", "s42", "s4_boxdia"):
        theory = REGISTRY[tid]
        naturalities = rewrite._tables(theory).naturalities
        found = 0
        for src in ("", "b", "d", "bb", "bd", "db", "dd"):
            for factors in enumerate_factor_terms(theory, src, 3):
                for i in range(len(factors) - 1):
                    pair = tuple(factors[i:i + 2])
                    code = rewrite._spine_code(pair)
                    for m in naturalities.get((pair[0].kind, pair[1].kind),
                                              ()):
                        match = rewrite._pair_rewrite(m, pair)
                        scanned = list(rewrite._segment_rewrites(m, pair, code))
                        assert scanned == ([] if match is None else [match])
                        found += match is not None
        assert found > 0, tid


def test_derivation_steps_are_sound():
    # Replay a found derivation step by step and check every intermediate
    # interpretation (the search guard, exercised externally).
    from modalcoherence.rewrite import rewrites

    theory = REGISTRY["s5"]
    lhs = parse_term("box(delta_db{e}) . delta_bd{b}")
    rhs = parse_term("delta_bb{e} . delta_db{e}")
    result = prove_equal_bounded(theory, lhs, rhs)
    assert result.proved
    src, _, factors = term_factors(lhs)
    image = interp(theory, lhs)
    state = tuple(factors)
    for step in result.steps:
        successors = [
            nf for nf, s in rewrites(theory, src, state)
            if (s.schema_id, s.direction, s.position, s.strip)
            == (step.schema_id, step.direction, step.position, step.strip)
        ]
        assert successors, step
        state = successors[0]
        assert interp(theory, factors_to_term(src, list(state))).same_as(image)
    assert state == tuple(term_factors(rhs)[2])


def test_directed_normalize_terminates_and_preserves_image():
    rng = random.Random(59)
    for tid in ("s4_boxdia", "s42", "s5", "fives", "s4_boxdia_chi"):
        for _ in range(40):
            src_word = rng.choice(["", "b", "d", "bd", "db"])
            t = random_term(tid, src_word, rng.randint(0, 5), rng)
            src, _, factors = term_factors(t)
            nf, steps = directed_normalize(tid, src, tuple(factors))
            out = factors_to_term(src, list(nf))
            assert bool(decide_equal(tid, out, t))
