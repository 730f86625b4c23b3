"""Coherence functors: clause values, functoriality, soundness, equality."""

import importlib
import random
from dataclasses import replace

import pytest

import soundness_reference

from modalcoherence import cli
from modalcoherence import diagram as dg
from modalcoherence.decide import mirror_term, random_term
from modalcoherence.interp import (
    EQUAL,
    NOT_EQUAL,
    TYPE_MISMATCH,
    VariantError,
    admitted_variants,
    STD,
    check_soundness,
    decide_equal,
    interp,
    side_frame,
)
from modalcoherence.schemas import FVarPat, SCHEMAS
from modalcoherence.terms import (
    Gen,
    TypingError,
    mirror_factor,
    parse_term,
    term_factors,
    term_type,
)
from modalcoherence.theories import REGISTRY, typecheck


def S(i):
    return ("s", i)


def T(j):
    return ("t", j)


def test_relational_generator_clauses():
    assert interp("s4_box", parse_term("delta_bb{e}")).same_as(
        dg.rel(1, 2, [(0, 0), (0, 1)]))
    assert interp("s4_box", parse_term("eps_box{bb}")).same_as(
        dg.rel(3, 2, [(0, 0), (1, 1)]))
    assert interp("s4_dia", parse_term("delta_dd{b}")).same_as(
        dg.rel(3, 2, [(0, 0), (1, 1), (2, 1)]))
    assert interp("s42", parse_term("chi_db{d}")).same_as(
        dg.rel(3, 3, [(0, 0), (1, 2), (2, 1)]))


def test_one_sided_variants():
    # The delta variant adds the diagonal link to the counit clause.
    d = interp("t_box", parse_term("eps_box{b}"), "delta")
    assert d.same_as(dg.rel(2, 1, [(0, 0), (1, 0)]))
    d = interp("t_box", parse_term("eps_box{e}"), "delta")
    assert d.same_as(dg.rel(1, 0, []))
    # The eps variant drops the extra link of the comultiplication clause.
    d = interp("k4_dia", parse_term("delta_dd{e}"), "eps")
    assert d.same_as(dg.rel(2, 1, [(0, 0)]))
    # Base-system slide equation holds under both variants.
    lhs = parse_term("eps_box{e} . box(eps_box{e})")
    rhs = parse_term("eps_box{e} . eps_box{b}")
    for variant in ("std", "eps", "delta"):
        assert interp("t_box", lhs, variant).same_as(interp("t_box", rhs, variant))


def test_variant_admissibility():
    with pytest.raises(VariantError):
        interp("s5", parse_term("id{b}"), "eps")
    with pytest.raises(VariantError):
        interp("t_boxdia", parse_term("id{b}"), "delta")
    with pytest.raises(VariantError):
        interp("k4_boxdia", parse_term("id{b}"), "eps")
    with pytest.raises(VariantError):
        interp("s4_box", parse_term("id{b}"), "dual")
    with pytest.raises(VariantError):
        interp("s5", parse_term("id{b}"), "sharp")
    with pytest.raises(VariantError):
        interp("s4_boxdia_triv", parse_term("id{b}"))


def test_split_equivalence_clauses():
    d = interp("s5", parse_term("eps_box{d}"))
    assert d.same_as(dg.spliteq(2, 1, [[S(0), T(0)], [S(1)]]))
    d = interp("s5", parse_term("eps_dia{b}"))
    assert d.same_as(dg.spliteq(1, 2, [[S(0), T(0)], [T(1)]]))
    d = interp("s5", parse_term("delta_bd{b}"))
    assert d.same_as(dg.spliteq(2, 3, [[S(0), T(0)], [S(1), T(1), T(2)]]))
    d = interp("s5", parse_term("delta_db{e}"))
    assert d.same_as(dg.spliteq(2, 1, [[S(0), S(1), T(0)]]))
    # The mirrored generators share the transposed shapes.
    assert interp("fives", parse_term("sigma_db{e}")).same_as(
        interp("s5", parse_term("delta_bd{e}")))
    assert interp("fives", parse_term("sigma_bd{e}")).same_as(
        interp("s5", parse_term("delta_db{e}")))


def test_worked_composition():
    d = interp("s5", parse_term("box(delta_db{e}) . delta_bd{b}"))
    assert d.same_as(dg.spliteq(2, 2, [[S(0), S(1), T(0), T(1)]]))
    assert (d.src_word, d.tgt_word) == ("db", "bb")
    assert interp("s5", parse_term("id{bdb}")).same_as(dg.spliteq_identity(3))


def test_interp_functorial_on_random_terms():
    rng = random.Random(21)
    for tid in ("s4_boxdia", "s42", "s5", "fives", "s4_dia_chi"):
        for _ in range(60):
            src = rng.choice(["", "b", "d", "bd", "db"])
            f = random_term(tid, src, rng.randint(0, 4), rng)
            mid = term_type(f)[1]
            g = random_term(tid, mid, rng.randint(0, 4), rng)
            from modalcoherence.terms import Comp

            whole = interp(tid, Comp(g, f))
            parts = dg.compose(interp(tid, g), interp(tid, f))
            assert whole.same_as(parts)


def test_frame_key_agrees_with_diagram_equality():
    # Random terms grouped by type: two keys of one frame are equal exactly
    # when the two images are the same diagram.
    rng = random.Random(33)
    for tid in ("s4_boxdia_chi", "s5"):
        frame = side_frame(REGISTRY[tid], STD)
        by_type: dict = {}
        for _ in range(300):
            src = rng.choice(["", "b", "d", "bd", "db"])
            term = random_term(tid, src, rng.randint(0, 4), rng)
            src, tgt, factors = term_factors(term)
            by_type.setdefault((src, tgt), []).append(
                (frame.key(src, tgt, factors), interp(tid, term)))
        verdicts = set()
        for group in by_type.values():
            for k, (key, image) in enumerate(group):
                for other_key, other_image in group[k + 1:]:
                    same = image.same_as(other_image)
                    assert (key == other_key) == same
                    verdicts.add(same)
        assert verdicts == {True, False}, tid


def test_dual_functor_clauses():
    # Counit and comultiplication exchange shapes, one extra strand.
    d = interp("s5", parse_term("eps_box{e}"), "dual")
    assert d.same_as(dg.spliteq(2, 1, [[S(0), S(1), T(0)]]))
    d = interp("s5", parse_term("delta_bd{e}"), "dual")
    assert d.same_as(dg.spliteq(2, 3, [[S(0), T(0)], [T(1)], [S(1), T(2)]]))
    assert interp("s5", parse_term("id{bd}"), "dual").same_as(
        dg.spliteq_identity(3))


def test_dual_functor_tracking_strand():
    # Every dual image joins the extra source strand to the extra target
    # strand, possibly through other elements.
    rng = random.Random(33)
    for tid in ("s5", "fives"):
        for _ in range(80):
            src = rng.choice(["", "b", "d", "bd", "db"])
            f = random_term(tid, src, rng.randint(0, 5), rng)
            a, b = term_type(f)
            d = interp(tid, f, "dual")
            assert d.src_len == len(a) + 1 and d.tgt_len == len(b) + 1
            cls = d.class_of(("s", len(a)))
            assert ("t", len(b)) in cls


def test_dual_functor_on_mirror_theory_matches_transport():
    rng = random.Random(40)
    for _ in range(50):
        t = random_term("s5", rng.choice(["", "b", "d", "db"]),
                        rng.randint(0, 4), rng)
        m = mirror_term(t, source="s5")
        assert interp("fives", m, "dual").same_as(
            dg.mirror(interp("s5", t, "dual")))


def test_soundness_small_all_theories():
    for tid in REGISTRY:
        report = check_soundness(tid, idx_bound=2, f_bound=1)
        assert report.passed, report.describe()


def test_soundness_mutation_detects_broken_clause(monkeypatch):
    # Deliberate fault: drop the duplication link from the comultiplication
    # clause; the triangle law must then fail.
    import importlib

    interp_mod = importlib.import_module("modalcoherence.interp")
    clauses = interp_mod._CLAUSES["rel", "std"]
    s, t, links = clauses["delta_bb"]
    monkeypatch.setitem(clauses, "delta_bb",
                        (s, t, tuple(p for p in links if p != (0, 1))))
    report = check_soundness("s4_box", idx_bound=2, f_bound=1)
    assert not report.passed
    assert any(f.schema_id in ("beta_bb", "eta_bb", "nat_delta_bb",
                               "assoc_delta_bb")
               for f in report.failures)


def test_soundness_mutation_detects_unbalanced_types(monkeypatch):
    # Deliberate fault: give the triangle law's identity side the wrong
    # word.  Both sides still have the same image in s4_box and s5 (one
    # strand per letter, whichever letter), so only the types tell them
    # apart.
    monkeypatch.setitem(SCHEMAS, "beta_bb",
                        replace(SCHEMAS["beta_bb"], identity_word=("d", "A")))
    for tid in ("s4_box", "s5"):
        report = check_soundness(tid, idx_bound=2, f_bound=1)
        assert not report.passed, tid
        assert {f.schema_id for f in report.failures} == {"beta_bb"}, tid


THEORY_VARIANTS = [(tid, variant) for tid in sorted(REGISTRY)
                   for variant in admitted_variants(tid)]


@pytest.mark.parametrize("idx_bound, f_bound", [(2, 2), (3, 1), (1, 3)])
def test_soundness_agrees_with_reference(idx_bound, f_bound):
    for tid, variant in THEORY_VARIANTS:
        assert check_soundness(tid, variant, idx_bound, f_bound) == \
            soundness_reference.check_soundness(
                tid, variant, idx_bound, f_bound), (tid, variant)


# Deliberate faults in one clause each: (target, variant, generator kind)
# -> the broken clause and the failures it gives per theory/variant at
# idx_bound=2, f_bound=2.
CLAUSE_MUTATIONS = {
    ("rel", "std", "delta_bb"): ((1, 2, ((0, 0),)), {
        "s41/std": 7, "s42/std": 7, "s42_iso/std": 7,
        "s42_sharp/std": 8, "s42_sharp/sharp": 8, "s4_box/std": 7,
        "s4_box_chi/std": 14, "s4_boxdia/std": 7, "s4_boxdia_chi/std": 14,
        "s4_boxdia_sharp/std": 8, "s4_boxdia_sharp/sharp": 8,
        "splus_chi_op/std": 7}),
    ("gen", "std", "delta_bd"): (
        (1, 2, ((("s", 0), ("t", 0)), (("t", 1),))), {"s5/std": 21}),
    ("gen", "dual", "delta_db"): (
        (3, 2, ((("s", 0), ("t", 0), ("s", 1)), (("s", 2), ("t", 1)))),
        {"s5/dual": 28, "fives/dual": 28}),
    ("rel", "std", "chi_db"): ((2, 2, ((0, 0), (1, 1))), {
        "s42/std": 28, "s42_iso/std": 42, "s42_sharp/std": 28,
        "s42_sharp/sharp": 28}),
}


@pytest.mark.parametrize("mutation", sorted(CLAUSE_MUTATIONS),
                         ids="/".join)
def test_soundness_agrees_with_reference_under_clause_mutations(
        monkeypatch, mutation):
    target, functor, kind = mutation
    clause, expected = CLAUSE_MUTATIONS[mutation]
    clauses = importlib.import_module("modalcoherence.interp")._CLAUSES
    monkeypatch.setitem(clauses[target, functor], kind, clause)
    counts = {}
    for tid, variant in THEORY_VARIANTS:
        report = check_soundness(tid, variant, 2, 2)
        assert report == soundness_reference.check_soundness(
            tid, variant, 2, 2), (tid, variant)
        if report.failures:
            counts[f"{tid}/{variant}"] = len(report.failures)
    assert counts == expected


def test_soundness_failure_order_across_depths(monkeypatch):
    # Deliberate fault: nat_eps_box with nat_delta_bb's right side has
    # unequal types at every depth of the inner-arrow tree, so the sweep
    # must list the failures of a level after every failure of the level
    # above, in the order the reference lists them.
    schema = SCHEMAS["nat_eps_box"]
    monkeypatch.setitem(SCHEMAS, "nat_eps_box",
                        replace(schema, rhs=SCHEMAS["nat_delta_bb"].rhs))
    counts = {}
    for tid in ("s4_box", "s5", "s42", "s4_boxdia"):
        report = check_soundness(tid, STD, 2, 2)
        assert report == soundness_reference.check_soundness(
            tid, STD, 2, 2), tid
        counts[tid] = len(report.failures)
    assert counts["s4_box"] == 45 and counts["s5"] == 292


def test_soundness_types_every_move(monkeypatch):
    # Deliberate fault: the right side's arrow under a prefix its running
    # word lacks.  Its first factor must be checked when it is added.
    schema = SCHEMAS["nat_eps_box"]
    monkeypatch.setitem(SCHEMAS, "nat_eps_box", replace(
        schema, rhs=(*schema.rhs[:-1], FVarPat("d" + schema.rhs[-1].prefix))))
    for sweep in (check_soundness, soundness_reference.check_soundness):
        with pytest.raises(TypingError, match="^composition mismatch: "
                           "inner target e != outer source d$"):
            sweep("s4_boxdia", STD, 2, 2)


def test_soundness_preorder_quotient_admits_the_standard_variant_alone():
    assert admitted_variants("s5_triv") == [STD]
    for variant in ("bogus", "dual"):
        with pytest.raises(VariantError):
            check_soundness("s5_triv", variant, 1, 1)
    assert check_soundness("s5_triv", STD, 1, 1).passed


# Instances per (theory, functor variant) at idx_bound=2, f_bound=2: every
# registry theory with each variant it admits.
SOUNDNESS_INSTANCES = {
    "fives/dual": 1850, "fives/std": 1850, "fives_triv/std": 1892,
    "k/delta": 0, "k/eps": 0, "k/std": 0,
    "k4_box/delta": 31, "k4_box/eps": 31, "k4_box/std": 31,
    "k4_boxdia/delta": 64, "k4_boxdia/std": 64,
    "k4_dia/delta": 15, "k4_dia/eps": 15, "k4_dia/std": 15,
    "s41/std": 1115, "s42/std": 1115, "s42_iso/std": 1462,
    "s42_sharp/sharp": 1129, "s42_sharp/std": 1129, "s42_triv/std": 1136,
    "s4_box/std": 111, "s4_box_chi/std": 230, "s4_boxdia/std": 822,
    "s4_boxdia_chi/std": 1498,
    "s4_boxdia_sharp/sharp": 836, "s4_boxdia_sharp/std": 836,
    "s4_boxdia_triv/std": 843,
    "s4_dia/std": 223, "s4_dia_chi/std": 413,
    "s5/dual": 1850, "s5/std": 1850, "s5_triv/std": 1892,
    "s_chi/std": 64, "splus_chi_op/std": 105,
    "t_box/delta": 21, "t_box/eps": 21, "t_box/std": 21,
    "t_boxdia/eps": 246, "t_boxdia/std": 246,
    "t_dia/delta": 93, "t_dia/eps": 93, "t_dia/std": 93,
}


def test_soundness_instance_counts():
    assert {key.split("/")[0] for key in SOUNDNESS_INSTANCES} == set(REGISTRY)
    assert sum(SOUNDNESS_INSTANCES.values()) == 25_351
    for key, expected in SOUNDNESS_INSTANCES.items():
        tid, variant = key.split("/")
        report = check_soundness(tid, variant, idx_bound=2, f_bound=2)
        assert report.passed, report.describe()
        assert report.instances == expected, key


def test_soundness_rejects_negative_bounds():
    # A negative arrow bound would skip every naturality instance and still
    # report a passing sweep.
    for bounds in ({"idx_bound": -1}, {"idx_bound": 1, "f_bound": -1}):
        with pytest.raises(ValueError, match="must be non-negative"):
            check_soundness("s5", "std", **bounds)
    assert check_soundness("s5", "std", idx_bound=0, f_bound=0).passed


def test_decide_equal_verdicts():
    lhs = parse_term("box(delta_db{e}) . delta_bd{b}")
    rhs = parse_term("delta_bb{e} . delta_db{e}")
    assert decide_equal("s5", lhs, rhs).verdict == EQUAL
    f = parse_term("eps_box{e}")
    assert decide_equal("s4_box", f, f).verdict == EQUAL
    r = decide_equal("s4_box", f, parse_term("delta_bb{e}"))
    assert r.verdict == TYPE_MISMATCH
    # Same type, different images.
    r = decide_equal("s4_boxdia",
                     parse_term("dia(box(eps_dia{e})) . eps_box{db}"),
                     parse_term("eps_dia{bd} . box(dia(eps_box{e}))"))
    assert r.verdict == NOT_EQUAL
    assert r.left_diagram is not None and r.right_diagram is not None


def test_deep_chain_at_default_recursion_limit(capsys):
    # 100,000 compositions: parsing, typing and the fold walk the chain in
    # loops, so the default recursion limit suffices.
    text = " . ".join(["eps_box{b} . delta_bb{e}"] * 50_000)
    term = parse_term(text)
    assert typecheck(term, "s4_box") == ("b", "b")
    assert decide_equal("s4_box", term, parse_term("id{b}")).verdict == EQUAL
    # Too long for an argv string, so the CLI runs in-process.
    assert cli.run(["eq", "--theory", "s4_box", text, "id{b}"]) == 0
    assert capsys.readouterr().out.strip() == "equal"


def test_mirror_factor_matches_mirror_term():
    rng = random.Random(61)
    for source in ("s5", "fives"):
        for _ in range(40):
            t = random_term(source, rng.choice(["", "b", "d", "bd", "db"]),
                            rng.randint(0, 6), rng)
            src, tgt, factors = term_factors(t)
            assert term_factors(mirror_term(t, source=source)) == (
                src[::-1], tgt[::-1],
                [mirror_factor(f) for f in factors])


def test_noncrossing_images():
    rng = random.Random(55)
    for tid in ("s5", "fives"):
        for _ in range(120):
            t = random_term(tid, rng.choice(["", "b", "d", "bd", "db", "bdb"]),
                            rng.randint(0, 6), rng)
            assert dg.is_noncrossing(interp(tid, t))


def test_soundness_s4_box_deeper_indices():
    report = check_soundness("s4_box", idx_bound=4, f_bound=1)
    assert report.passed, report.describe()


def test_one_sided_clauses_are_converses():
    # The comultiplication clause is the converse of the deep counit clause
    # one level up.
    for n in range(4):
        deep = interp("t_box", Gen("eps_box", "b" * (n + 1)), "delta")
        comult = interp("k4_box", Gen("delta_bb", "b" * n))
        assert dg.converse(deep).same_as(comult)


def test_all_small_generator_images_noncrossing():
    words = [w for k in range(4) for w in
             ("".join(p) for p in __import__("itertools").product("bd", repeat=k))]
    for tid, kinds in (("s5", ("eps_box", "eps_dia", "delta_bb", "delta_dd",
                               "delta_bd", "delta_db")),
                       ("fives", ("eps_box", "eps_dia", "sigma_bb",
                                  "sigma_dd", "sigma_db", "sigma_bd"))):
        for kind in kinds:
            for word in words:
                assert dg.is_noncrossing(interp(tid, Gen(kind, word)))


def test_chi_clause_is_self_inverse_under_functor():
    for word in ("", "b", "d", "bd"):
        t = Gen("chi_bb", word)
        sq = dg.rel_compose(interp("s_chi", t), interp("s_chi", t))
        assert sq.same_as(dg.rel_identity(len(word) + 2))
