"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(visible with ``pytest -s`` or ``-v``) and then asserts.  Universal
quantifications over all modality words are run on the stated finite bounds;
where a criterion leaves the word slice open, the slice used is spelled out
in the test.
"""

import itertools
import math
import random
import time
from dataclasses import replace

from modalcoherence import diagram as dg
from modalcoherence.decide import (
    HomQuery,
    enum_hom,
    mirror_term,
    random_term,
)
from modalcoherence.interp import (
    admitted_variants,
    check_soundness,
    decide_equal,
    interp,
)
from modalcoherence.quotient import interp_sharp, preordering_catalog, skeleton
from modalcoherence.rewrite import (
    confluence_check,
    prove_equal_bounded,
)
from modalcoherence.schemas import SCHEMAS, instantiate
from modalcoherence.simplicial import (
    compose_maps,
    decompose_inj_surj,
    decompose_surj_inj,
    embed_injection,
    embed_monotone,
    embed_surjection,
    finmap,
    graph_to_map,
)
from modalcoherence.terms import (
    App,
    Comp,
    Gen,
    Id,
    factors_to_term,
    parse_term,
    rev_word,
    term_type,
)
from modalcoherence.theories import REGISTRY, enumerate_factor_terms


def _report(number: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number:2d} [{status}] {description}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def _words(max_len: int) -> list[str]:
    out = [""]
    level = [""]
    for _ in range(max_len):
        level = [w + c for w in level for c in "bd"]
        out.extend(level)
    return out


def test_criterion_01_soundness_sweep():
    failures = []
    instances = 0
    t0 = time.time()
    for tid in sorted(REGISTRY):
        for variant in admitted_variants(tid):
            report = check_soundness(tid, variant, idx_bound=3, f_bound=2)
            instances += report.instances
            if not report.passed:
                failures.append((tid, variant, len(report.failures)))
    elapsed = time.time() - t0
    if instances != 99_288:
        failures.append(("instances", instances))
    if elapsed > 120:
        failures.append(("runtime", elapsed))
    _report(1, f"soundness sweep, all theories/variants ({elapsed:.0f}s)",
            failures)


def test_criterion_02_worked_composition():
    failures = []
    d = interp("s5", parse_term("box(delta_db{e}) . delta_bd{b}"))
    expected = dg.spliteq(2, 2, [[("s", 0), ("s", 1), ("t", 0), ("t", 1)]])
    if not d.same_as(expected) or (d.src_len, d.tgt_len) != (2, 2):
        failures.append(dg.to_json(d))
    _report(2, "worked two-generator composition", failures)


def test_criterion_03_redundancy_and_named_equations():
    failures = []
    # The four mixed-associativity schemas hold under the functor.
    for sid in ("assoc_delta_bb", "assoc_delta_bd", "assoc_delta_dd",
                "assoc_delta_db"):
        for word in _words(2):
            lhs, rhs = (factors_to_term(*side)
                        for side in instantiate(SCHEMAS[sid], word))
            if not decide_equal("s5", lhs, rhs):
                failures.append((sid, word))
    # The derivation of the mixed associativities from the interaction laws,
    # reproduced by bounded search with those schemas removed.
    reduced = replace(REGISTRY["s5"], id="s5_no_assoc",
                      equations=tuple(e for e in REGISTRY["s5"].equations
                                      if not e.startswith("assoc_")))
    for sid in ("assoc_delta_bb", "assoc_delta_bd", "assoc_delta_dd",
                "assoc_delta_db"):
        for word in ("", "b"):
            lhs, rhs = (factors_to_term(*side)
                        for side in instantiate(SCHEMAS[sid], word))
            result = prove_equal_bounded(reduced, lhs, rhs, depth=8)
            if not (result.proved and len(result.steps) <= 8):
                failures.append(("derivation", sid, word))

    def eb(w):
        return Gen("eps_box", w)

    def ed(w):
        return Gen("eps_dia", w)

    def chain(*parts):
        out = parts[0]
        for p in parts[1:]:
            out = Comp(p, out)
        return out

    for word in _words(2):
        a = word
        # Alternative axiomatization: both counit-flavored chains equal the
        # diamond-box comultiplication, and dually.
        law1a = chain(Gen("delta_bd", "b" + a), App("b", Gen("delta_db", a)),
                      App("b", eb(a)))
        law1b = chain(App("d", Gen("delta_bb", a)), Gen("delta_db", "b" + a),
                      eb("b" + a))
        target1 = Gen("delta_db", a)
        law2a = chain(App("d", ed(a)), App("d", Gen("delta_bd", a)),
                      Gen("delta_db", "d" + a))
        law2b = chain(ed("d" + a), Gen("delta_bd", "d" + a),
                      App("b", Gen("delta_dd", a)))
        target2 = Gen("delta_bd", a)
        for tag, lhs, rhs in (("law1a", law1a, target1),
                              ("law1b", law1b, target1),
                              ("law2a", law2a, target2),
                              ("law2b", law2b, target2)):
            if not decide_equal("s5", lhs, rhs):
                failures.append((tag, word))
        # The comultiplications are definable from the mixing generators.
        defined_bb = chain(ed("b" + a), Gen("delta_bd", "b" + a),
                           App("b", Gen("delta_db", a)))
        defined_dd = chain(App("d", Gen("delta_bd", a)),
                           Gen("delta_db", "d" + a), eb("d" + a))
        if not decide_equal("s5", defined_bb, Gen("delta_bb", a)):
            failures.append(("defined_bb", word))
        if not decide_equal("s5", defined_dd, Gen("delta_dd", a)):
            failures.append(("defined_dd", word))
    _report(3, "mixed-associativity redundancy, alternative equations",
            failures)


def test_criterion_04_adjunction_triangles():
    failures = []
    for word in _words(3):
        unit = Comp(Gen("delta_bd", word), Gen("eps_dia", word))
        counit = Comp(Gen("eps_box", word), Gen("delta_db", word))

        # Left triangle: counit after the diamond image of the unit.
        tri1 = Comp(Comp(Gen("eps_box", "d" + word),
                         Gen("delta_db", "d" + word)),
                    App("d", unit))
        # Right triangle: box image of the counit after the unit.
        tri2 = Comp(App("b", counit),
                    Comp(Gen("delta_bd", "b" + word),
                         Gen("eps_dia", "b" + word)))
        if not decide_equal("s5", tri1, Id("d" + word)):
            failures.append(("left", word))
        if not decide_equal("s5", tri2, Id("b" + word)):
            failures.append(("right", word))
    _report(4, "adjunction triangle laws", failures)


def test_criterion_05_counting_and_isomorphisms():
    failures = []
    t0 = time.time()
    for m in range(6):
        for n in range(6):
            count = len(enum_hom(HomQuery("s4_dia", "d" * m, "d" * n)))
            expected = 1 if m == 0 else math.comb(m + n - 1, m)
            if count != expected:
                failures.append(("mono-count", m, n, count))
    for m in range(6):
        for n in range(6):
            for values in itertools.combinations_with_replacement(range(n), m):
                h = finmap(m, n, values)
                if graph_to_map(interp("s4_dia", embed_monotone(h))) != h:
                    failures.append(("mono-roundtrip", h.values))
    for m in range(5):
        for n in range(5):
            count = len(enum_hom(HomQuery("s4_dia_chi", "d" * m, "d" * n)))
            expected = n ** m if m else 1
            if count != expected:
                failures.append(("fn-count", m, n, count))
    for m in range(5):
        for n in range(5):
            for values in itertools.product(range(n), repeat=m):
                h = finmap(m, n, values)
                if h.injective:
                    t = embed_injection(h)
                    if graph_to_map(interp("s4_dia_chi", t)) != h:
                        failures.append(("inj-roundtrip", h.values))
                if h.surjective:
                    t = embed_surjection(h)
                    if graph_to_map(interp("s4_dia_chi", t)) != h:
                        failures.append(("surj-roundtrip", h.values))
    elapsed = time.time() - t0
    if elapsed > 120:
        failures.append(("runtime", elapsed))
    _report(5, f"hom counting and embedding round trips ({elapsed:.0f}s)",
            failures)


def test_criterion_06_decomposition_uniqueness():
    failures = []
    for m in range(6):
        for n in range(6):
            for values in itertools.combinations_with_replacement(range(n), m):
                h = finmap(m, n, values)
                h1, h2 = decompose_surj_inj(h)
                if not (h1.monotone and h1.surjective and h2.monotone
                        and h2.injective and compose_maps(h2, h1) == h):
                    failures.append(("surj-inj", values))
                if _count_surj_inj(h) != 1:
                    failures.append(("surj-inj-unique", values))
                g1, g2 = decompose_inj_surj(h)
                k = m + n - len(h.image)
                if not (g1.monotone and g1.injective and g2.monotone
                        and g2.surjective and g1.cod == k
                        and compose_maps(g2, g1) == h):
                    failures.append(("inj-surj", values))
                if _count_inj_surj(h) != 1:
                    failures.append(("inj-surj-unique", values))
    _report(6, "factorization uniqueness against brute force", failures)


def _count_surj_inj(h) -> int:
    k = len(h.image)
    count = 0
    for s_vals in itertools.combinations_with_replacement(range(k), h.dom):
        s = finmap(h.dom, k, s_vals)
        if not s.surjective:
            continue
        for i_vals in itertools.combinations(range(h.cod), k):
            if compose_maps(finmap(k, h.cod, i_vals), s) == h:
                count += 1
    return count


def _count_inj_surj(h) -> int:
    k = h.dom + h.cod - len(h.image)
    count = 0
    for s_vals in itertools.combinations_with_replacement(range(h.cod), k):
        s = finmap(k, h.cod, s_vals)
        if not s.surjective:
            continue
        # Monotone injections h1 with s . h1 = h, counted by backtracking
        # over the fibers.
        def extend(i, floor):
            if i == h.dom:
                return 1
            total = 0
            for slot in range(floor, k):
                if s(slot) == h(i):
                    total += extend(i + 1, slot + 1)
                elif s(slot) > h(i):
                    break
            return total

        count += extend(0, 0)
    return count


def test_criterion_07_confluence_unique_nf():
    failures = []
    report = confluence_check("t_box", 5)
    if not report.confluent:
        failures.append(("divergences", len(report.divergences)))
    for (src, tgt), forms in report.normal_forms.items():
        images = {interp("t_box", factors_to_term(src, list(f))).key()
                  for f in forms}
        if len(images) != len(forms):
            failures.append(("nf-image-bijection", src, tgt))
    hom31 = report.normal_forms.get(("bbb", "b"), set())
    if len(hom31) != 3:
        failures.append(("hom(3,1)", len(hom31)))
    _report(7, f"unique slide normal forms ({report.terms_checked} terms)",
            failures)


_SWEEP_SOURCES = {
    "t_box": ["b" * k for k in range(6)],
    "s4_box": ["b", "bb", "bbb"],
    "s4_dia": ["d", "dd", "ddd"],
    "s4_boxdia": _words(2),
    "s42": _words(2),
    "s5": _words(2),
}


def test_criterion_08_desk_scale_completeness():
    failures = []
    t0 = time.time()
    for tid, sources in _SWEEP_SOURCES.items():
        groups = {}
        for src in sources:
            for factors in enumerate_factor_terms(tid, src, 4):
                t = factors_to_term(src, factors)
                d = interp(tid, t)
                groups.setdefault((src, term_type(t)[1], d.key()), []).append(t)
        for (src, tgt, _), group in groups.items():
            rep = group[0]
            for other in group[1:]:
                result = prove_equal_bounded(tid, rep, other)
                if not result.proved:
                    failures.append((tid, str(rep), str(other)))
    elapsed = time.time() - t0
    _report(8, f"desk-scale completeness of the proof search ({elapsed:.0f}s)",
            failures)


def test_criterion_09_quotient_contrasts():
    failures = []
    for word in ("", "b", "d"):
        lhs, rhs = (factors_to_term(*side)
                    for side in instantiate(SCHEMAS["commute_box_dia"], word))
        if interp_sharp("s4_boxdia_sharp", lhs).same_as(
                interp_sharp("s4_boxdia_sharp", rhs)):
            failures.append(("commute", word))
    from test_quotient import _s42_sharp_failing_pairs

    for word in ("", "b", "d"):
        for i, (lhs, rhs) in enumerate(_s42_sharp_failing_pairs(word)):
            if interp_sharp("s42_sharp", lhs).same_as(
                    interp_sharp("s42_sharp", rhs)):
                failures.append(("s42-sharp", i, word))
    for lhs, rhs in preordering_catalog("s5"):
        if decide_equal("s5", lhs, rhs).verdict != "not_equal":
            failures.append(("preorder-s5", str(lhs)))
    for lhs, rhs in preordering_catalog("fives"):
        if decide_equal("fives", lhs, rhs).verdict != "not_equal":
            failures.append(("preorder-fives", str(lhs)))
    _report(9, "collapse-quotient inequality contrasts", failures)


def test_criterion_10_skeletons():
    failures = []
    sk = skeleton("s4_boxdia_triv")
    if len(sk.objects) != 7:
        failures.append(("objects", sk.objects))
    expected_reach = {
        "b": {"b", "bdb", "db", "bd", "dbd", "d", ""},
        "bdb": {"bdb", "db", "bd", "dbd", "d"},
        "db": {"db", "dbd", "d"},
        "bd": {"bd", "dbd", "d"},
        "dbd": {"dbd", "d"},
        "d": {"d"},
        "": {"", "d"},
    }
    for obj, reach in expected_reach.items():
        if sk.reaches(obj) != reach:
            failures.append(("reach", obj))
    for a, b in itertools.product(sk.objects, repeat=2):
        count = len(enum_hom(HomQuery("s4_boxdia", a, b, 6)))
        limit = 2 if (a, b) == ("bdb", "dbd") else 1
        exact = (a, b) == ("bdb", "dbd")
        if exact and count != 2:
            failures.append(("pair-count", a, b, count))
        if not exact and count > limit:
            failures.append(("pair-count", a, b, count))
    if len(skeleton("s42_triv").objects) != 5:
        failures.append(("s42-objects",))
    if len(skeleton("s5_triv").objects) != 3:
        failures.append(("s5-objects",))
    if len(skeleton("fives_triv").objects) != 3:
        failures.append(("fives-objects",))
    if len(enum_hom(HomQuery("fives", "", "b"))) != 0:
        failures.append(("fives-empty-to-box",))
    if len(enum_hom(HomQuery("fives", "d", ""))) != 0:
        failures.append(("fives-dia-to-empty",))
    _report(10, "preorder skeletons and bounded hom counts", failures)


def test_criterion_11_mirror_isomorphism():
    failures = []
    rng = random.Random(2026)
    words = _words(3)
    for _ in range(500):
        t = random_term("s5", rng.choice(words), rng.randint(0, 6), rng)
        src, tgt = term_type(t)
        m = mirror_term(t, source="s5")
        if term_type(m) != (rev_word(src), rev_word(tgt)):
            failures.append(("type", str(t)))
            continue
        if not interp("fives", m).same_as(dg.mirror(interp("s5", t))):
            failures.append(("interp", str(t)))
            continue
        back = mirror_term(m, source="fives")
        if not decide_equal("s5", back, t):
            failures.append(("involution", str(t)))
    _report(11, "mirror isomorphism on 500 random terms", failures)
