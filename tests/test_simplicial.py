"""Finite-ordinal functions: decompositions, embeddings, counting."""

import itertools
import math

import pytest

from modalcoherence.interp import decide_equal, interp
from modalcoherence.simplicial import (
    FinMapError,
    compose_maps,
    decompose_bij_monotone,
    decompose_inj_surj,
    decompose_surj_inj,
    embed_function,
    embed_injection,
    embed_monotone,
    embed_surjection,
    finmap,
    finmap_from_json,
    graph_to_map,
    identity_map,
    inversions,
)
from modalcoherence.terms import Comp


def all_monotone(m, n):
    return [finmap(m, n, values)
            for values in itertools.combinations_with_replacement(range(n), m)]


def all_functions(m, n):
    if m == 0:
        return [finmap(0, n, [])]
    return [finmap(m, n, values)
            for values in itertools.product(range(n), repeat=m)]


def test_finmap_basics():
    h = finmap(3, 3, [0, 0, 2])
    assert h.monotone and not h.injective and not h.surjective
    assert h.image == (0, 2)
    assert identity_map(3).bijective
    with pytest.raises(FinMapError):
        finmap(2, 1, [0, 1])
    assert finmap_from_json(h.to_json()) == h


def test_surj_inj_examples():
    h = finmap(3, 3, [0, 0, 2])
    h1, h2 = decompose_surj_inj(h)
    assert h1 == finmap(3, 2, [0, 0, 1])
    assert h2 == finmap(2, 3, [0, 2])
    ident = identity_map(2)
    assert decompose_surj_inj(ident) == (ident, ident)
    const = finmap(3, 1, [0, 0, 0])
    assert decompose_surj_inj(const) == (const, identity_map(1))


def test_inj_surj_examples():
    ident = identity_map(1)
    h1, h2 = decompose_inj_surj(ident)
    assert h1 == ident and h2 == ident
    const = finmap(2, 1, [0, 0])
    h1, h2 = decompose_inj_surj(const)
    assert h1 == identity_map(2) and h2 == const
    h = finmap(1, 2, [1])
    h1, h2 = decompose_inj_surj(h)
    assert h1 == finmap(1, 2, [1]) and h2 == identity_map(2)


def test_bij_monotone_examples():
    mono = finmap(3, 2, [0, 1, 1])
    p, hm = decompose_bij_monotone(mono)
    assert p == identity_map(3) and hm == mono
    swap = finmap(2, 2, [1, 0])
    p, hm = decompose_bij_monotone(swap)
    assert p == swap and hm == identity_map(2)
    h = finmap(3, 2, [1, 0, 0])
    p, hm = decompose_bij_monotone(h)
    assert p == finmap(3, 3, [2, 0, 1])
    assert hm == finmap(3, 2, [0, 0, 1])
    assert compose_maps(hm, p) == h


def brute_force_surj_inj(h):
    found = []
    k = len(h.image)
    for s_vals in itertools.combinations_with_replacement(range(k), h.dom):
        s = finmap(h.dom, k, s_vals)
        if not s.surjective:
            continue
        for i_vals in itertools.combinations(range(h.cod), k):
            i = finmap(k, h.cod, i_vals)
            if compose_maps(i, s) == h:
                found.append((s, i))
    return found


def brute_force_inj_surj(h):
    found = []
    k = h.dom + h.cod - len(h.image)
    for i_vals in itertools.combinations(range(k), h.dom):
        i = finmap(h.dom, k, i_vals)
        for s_vals in itertools.combinations_with_replacement(range(h.cod), k):
            s = finmap(k, h.cod, s_vals)
            if not s.surjective:
                continue
            if compose_maps(s, i) == h:
                found.append((i, s))
    return found


def test_decompositions_unique_small():
    # Both factorizations agree with the brute-force-unique one.
    for m in range(4):
        for n in range(4):
            for h in all_monotone(m, n):
                si = brute_force_surj_inj(h)
                assert len(si) == 1
                assert decompose_surj_inj(h) == si[0]
                js = brute_force_inj_surj(h)
                assert len(js) == 1
                assert decompose_inj_surj(h) == js[0]
                assert js[0][0].cod == m + n - len(h.image)


def test_bij_monotone_minimal_inversions():
    for m in range(4):
        for n in range(1, 4):
            for h in all_functions(m, n):
                p, hm = decompose_bij_monotone(h)
                assert hm.monotone and compose_maps(hm, p) == h
                best = min(
                    (inversions(finmap(m, m, q))
                     for q in itertools.permutations(range(m))
                     if compose_maps(hm, finmap(m, m, q)) == h),
                    default=0)
                assert inversions(p) == best


def test_embedding_examples():
    assert str(embed_monotone(finmap(0, 1, []))) == "eps_dia{e}"
    assert str(embed_monotone(finmap(2, 1, [0, 0]))) == "delta_dd{e}"
    t = embed_function(finmap(2, 2, [1, 0]))
    assert str(t) == "chi_dd{e}"
    d = interp("s4_dia_chi", t)
    assert sorted(d.pairs) == [(0, 1), (1, 0)]


def test_embedding_round_trip_monotone():
    for m in range(5):
        for n in range(5):
            for h in all_monotone(m, n):
                t = embed_monotone(h)
                assert graph_to_map(interp("s4_dia", t)) == h


def test_embedding_round_trip_others():
    for m in range(4):
        for n in range(4):
            for h in all_functions(m, n):
                assert graph_to_map(interp("s4_dia_chi", embed_function(h))) == h
                if h.injective:
                    t = embed_injection(h)
                    assert graph_to_map(interp("s4_dia_chi", t)) == h
                    assert all(f.kind in ("eps_dia", "chi_dd")
                               for f in _factors(t))
                if h.surjective:
                    t = embed_surjection(h)
                    assert graph_to_map(interp("s4_dia_chi", t)) == h
                    assert all(f.kind in ("delta_dd", "chi_dd")
                               for f in _factors(t))


def _factors(t):
    from modalcoherence.terms import term_factors

    return term_factors(t)[2]


def test_embedding_functor_law():
    maps = [finmap(2, 3, [0, 2]), finmap(3, 2, [0, 0, 1]),
            finmap(2, 2, [1, 1]), identity_map(2)]
    for f in maps:
        for g in maps:
            if f.cod != g.dom:
                continue
            lhs = embed_monotone(compose_maps(g, f)) if compose_maps(g, f).monotone else None
            if lhs is None:
                continue
            rhs = Comp(embed_monotone(g), embed_monotone(f))
            assert bool(decide_equal("s4_dia", lhs, rhs))
    assert bool(decide_equal("s4_dia", embed_monotone(identity_map(3)),
                             parse_id(3)))


def parse_id(n):
    from modalcoherence.terms import Id

    return Id("d" * n)


def test_embedding_kind_checks():
    with pytest.raises(FinMapError):
        embed_monotone(finmap(2, 2, [1, 0]))
    with pytest.raises(FinMapError):
        embed_injection(finmap(2, 1, [0, 0]))
    with pytest.raises(FinMapError):
        embed_surjection(finmap(1, 2, [0]))


def test_counting_and_injectivity():
    for m in range(5):
        for n in range(5):
            monos = all_monotone(m, n)
            expected = 1 if m == 0 else math.comb(m + n - 1, m)
            assert len(monos) == expected
            images = {interp("s4_dia", embed_monotone(h)).key() for h in monos}
            assert len(images) == len(monos)
    for m in range(4):
        for n in range(4):
            funcs = all_functions(m, n)
            if m > 0 and n == 0:
                assert funcs == [] or all(f.dom == 0 for f in funcs)
                continue
            assert len(funcs) == (n ** m if m else 1)
            images = {interp("s4_dia_chi", embed_function(h)).key()
                      for h in funcs}
            assert len(images) == len(funcs)
