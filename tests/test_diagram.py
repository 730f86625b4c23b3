"""Diagram carriers: composition, converse, mirror, planarity, formats."""

import itertools
import random

import pytest

import compose_reference as ref
from modalcoherence import diagram as dg
from modalcoherence.diagram import DiagramError


def S(i):
    return ("s", i)


def T(j):
    return ("t", j)


def test_identities():
    assert dg.rel_identity(0).same_as(dg.rel(0, 0, []))
    assert dg.spliteq_identity(2).same_as(
        dg.spliteq(2, 2, [[S(0), T(0)], [S(1), T(1)]]))
    r = dg.rel(2, 3, [(0, 1), (1, 2)])
    assert dg.rel_compose(dg.rel_identity(3), r).same_as(r)
    assert dg.rel_compose(r, dg.rel_identity(2)).same_as(r)


def test_rel_compose():
    f = dg.rel(3, 2, [(0, 0), (1, 1)])
    g = dg.rel(2, 1, [(0, 0), (1, 0)])
    assert dg.rel_compose(g, f).same_as(dg.rel(3, 1, [(0, 0), (1, 0)]))
    empty = dg.rel(2, 2, [])
    assert dg.rel_compose(empty, f).same_as(dg.rel(3, 2, []))
    with pytest.raises(DiagramError):
        dg.rel_compose(f, f)


def test_spliteq_compose_worked_example():
    r1 = dg.spliteq(2, 3, [[S(0), T(0)], [S(1), T(1), T(2)]])
    r2 = dg.spliteq(3, 2, [[S(0), S(1), T(0)], [S(2), T(1)]])
    out = dg.spliteq_compose(r2, r1)
    assert out.same_as(dg.spliteq(2, 2, [[S(0), S(1), T(0), T(1)]]))


def test_spliteq_identity_neutral():
    r1 = dg.spliteq(2, 3, [[S(0), T(0)], [S(1), T(1), T(2)]])
    assert dg.spliteq_compose(dg.spliteq_identity(3), r1).same_as(r1)
    assert dg.spliteq_compose(r1, dg.spliteq_identity(2)).same_as(r1)


def _random_spliteq(rng, n, m):
    elems = [S(i) for i in range(n)] + [T(j) for j in range(m)]
    rng.shuffle(elems)
    classes = []
    for elem in elems:
        if classes and rng.random() < 0.6:
            rng.choice(classes).append(elem)
        else:
            classes.append([elem])
    return dg.spliteq(n, m, classes)


def test_spliteq_compose_associative_random():
    rng = random.Random(5)
    for _ in range(150):
        n, m, k, l = (rng.randint(0, 4) for _ in range(4))
        f = _random_spliteq(rng, n, m)
        g = _random_spliteq(rng, m, k)
        h = _random_spliteq(rng, k, l)
        left = dg.spliteq_compose(h, dg.spliteq_compose(g, f))
        right = dg.spliteq_compose(dg.spliteq_compose(h, g), f)
        assert left.same_as(right)


def test_spliteq_middle_only_classes_vanish():
    f = dg.spliteq(0, 2, [[T(0), T(1)]])
    g = dg.spliteq(2, 0, [[S(0), S(1)]])
    out = dg.spliteq_compose(g, f)
    assert out.same_as(dg.spliteq(0, 0, []))


def test_converse():
    d = dg.rel(1, 2, [(0, 1)])
    assert dg.converse(d).same_as(dg.rel(2, 1, [(1, 0)]))
    assert dg.converse(dg.converse(d)).same_as(d)
    s = dg.spliteq(1, 2, [[S(0), T(0)], [T(1)]])
    assert dg.converse(s).same_as(dg.spliteq(2, 1, [[S(0), T(0)], [S(1)]]))


def test_converse_antihomomorphism():
    rng = random.Random(9)
    for _ in range(100):
        n, m, k = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        f = _random_spliteq(rng, n, m)
        g = _random_spliteq(rng, m, k)
        lhs = dg.converse(dg.spliteq_compose(g, f))
        rhs = dg.spliteq_compose(dg.converse(f), dg.converse(g))
        assert lhs.same_as(rhs)


def test_mirror():
    assert dg.mirror(dg.spliteq_identity(3)).same_as(dg.spliteq_identity(3))
    d = dg.spliteq(2, 3, [[S(0), T(0)], [S(1), T(1), T(2)]])
    assert dg.mirror(d).same_as(
        dg.spliteq(2, 3, [[S(1), T(2)], [S(0), T(0), T(1)]]))
    rng = random.Random(2)
    for _ in range(100):
        d = _random_spliteq(rng, rng.randint(0, 4), rng.randint(0, 4))
        assert dg.mirror(dg.mirror(d)).same_as(d)


def test_mirror_homomorphism():
    rng = random.Random(4)
    for _ in range(100):
        n, m, k = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        f = _random_spliteq(rng, n, m)
        g = _random_spliteq(rng, m, k)
        lhs = dg.mirror(dg.spliteq_compose(g, f))
        rhs = dg.spliteq_compose(dg.mirror(g), dg.mirror(f))
        assert lhs.same_as(rhs)


def test_mirror_reverses_words():
    d = dg.rel(2, 1, [(0, 0)], "bd", "d")
    m = dg.mirror(d)
    assert (m.src_word, m.tgt_word) == ("db", "d")
    assert m.same_as(dg.rel(2, 1, [(1, 0)]))


def test_noncrossing():
    assert dg.is_noncrossing(dg.spliteq_identity(4))
    assert not dg.is_noncrossing(dg.spliteq(2, 2, [[S(0), T(1)], [S(1), T(0)]]))
    # Nesting is planar.
    assert dg.is_noncrossing(dg.spliteq(2, 2, [[S(0), T(0)], [S(1), T(1)]]))
    assert dg.is_noncrossing(dg.spliteq(4, 0, [[S(0), S(3)], [S(1), S(2)]]))
    assert not dg.is_noncrossing(dg.spliteq(4, 0, [[S(0), S(2)], [S(1), S(3)]]))
    # One class containing everything never crosses.
    assert dg.is_noncrossing(dg.spliteq(2, 2, [[S(0), S(1), T(0), T(1)]]))


def _is_noncrossing_pairwise(d):
    """Planarity as defined before the stack scan: no two classes
    interleave along the boundary cycle, each pair checked separately."""
    position = {elem: k for k, elem in enumerate(dg.boundary_cycle(d))}
    labelled = sorted(
        (position[elem], num)
        for num, cls in enumerate(d.classes)
        for elem in cls
    )
    sequence = [num for _, num in labelled]
    for a in range(len(d.classes)):
        for b in range(a + 1, len(d.classes)):
            runs = []
            for num in sequence:
                if num in (a, b) and (not runs or runs[-1] != num):
                    runs.append(num)
            if len(runs) > 2 and runs[0] == runs[-1]:
                runs.pop()  # the cycle joins the first and last run
            if len(runs) >= 4:
                return False
    return True


def test_noncrossing_matches_pairwise_definition():
    checked = 0
    for points in range(8):
        for n in range(points + 1):
            for d in _all_spliteqs(n, points - n):
                assert dg.is_noncrossing(d) == _is_noncrossing_pairwise(d), d
                checked += 1
    # Bell numbers: the set partitions of 0..7 points, each split every way
    # into sources and targets.
    bell = [1, 1, 2, 5, 15, 52, 203, 877]
    assert checked == sum((p + 1) * b for p, b in enumerate(bell))


def test_json_round_trip():
    cases = [
        dg.rel(3, 2, [(0, 0), (1, 0)], "bdb", "dd"),
        dg.rel(0, 0, []),
        dg.spliteq(2, 2, [[S(0), S(1), T(0), T(1)]], "db", "bb"),
        dg.spliteq_identity(3),
    ]
    for d in cases:
        back = dg.from_json(dg.to_json(d))
        assert back == d
    with pytest.raises(DiagramError):
        dg.from_json("{not json")
    with pytest.raises(DiagramError):
        dg.from_json('{"src": 1, "tgt": 1, "kind": "nope"}')


@pytest.mark.parametrize("text", [
    '{"kind": "rel", "src": -2, "tgt": 0, "pairs": []}',
    '{"kind": "rel", "src": 1.5, "tgt": 1, "pairs": []}',
    '{"kind": "rel", "src": true, "tgt": 1, "pairs": []}',
    '{"kind": "rel", "src": 1, "tgt": "1", "pairs": []}',
    '{"kind": "rel", "src": 2, "tgt": 1, "pairs": [], "src_word": "bx"}',
    '{"kind": "rel", "src": 1, "tgt": 1, "pairs": [], "tgt_word": 7}',
    '{"kind": "rel", "src": 1, "tgt": 1, "pairs": [[0.7, 0]]}',
    '{"kind": "rel", "src": 1, "tgt": 1, "pairs": [[0, true]]}',
    '{"kind": "spliteq", "src": 1, "tgt": 0, "classes": [[["s", 0.7]]]}',
    '{"kind": "spliteq", "src": 1, "tgt": 0, "classes": [[["x", 0]]]}',
    '[1, 2]',
])
def test_from_json_rejects_malformed_fields(text):
    with pytest.raises(DiagramError):
        dg.from_json(text)


def test_render_identity():
    text = dg.render_ascii(dg.rel_identity(1))
    lines = text.splitlines()
    assert lines == ["0", "|", "0"]


def test_render_worked_composite_shows_component():
    d = dg.spliteq(2, 2, [[S(0), S(1), T(0), T(1)]])
    text = dg.render_ascii(d)
    assert "s0 s1 t0 t1" in text


def test_invalid_partitions_rejected():
    with pytest.raises(DiagramError):
        dg.spliteq(2, 0, [[S(0)]])  # does not cover s1
    with pytest.raises(DiagramError):
        dg.spliteq(1, 0, [[S(0)], [S(0)]])
    with pytest.raises(DiagramError):
        dg.rel(1, 1, [(0, 1)])


def _set_partitions(elems):
    if not elems:
        yield []
        return
    head, rest = elems[0], elems[1:]
    for partial in _set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [partial[i] + [head]] + partial[i + 1:]
        yield [[head]] + partial


def _all_spliteqs(n, m):
    elems = [S(i) for i in range(n)] + [T(j) for j in range(m)]
    return [dg.spliteq(n, m, p) for p in _set_partitions(elems)]


def _all_rels(n, m):
    cells = list(itertools.product(range(n), range(m)))
    return [dg.rel(n, m, (cell for bit, cell in enumerate(cells)
                          if mask >> bit & 1))
            for mask in range(1 << len(cells))]


@pytest.mark.parametrize("family", [_all_rels, _all_spliteqs],
                         ids=["rel", "spliteq"])
def test_compose_matches_reference_enumerated(family):
    # Every composable pair of diagrams with at most three source and three
    # target points, empty boundaries and (for split equivalences) classes
    # wholly in the middle included.
    pool = {(n, m): family(n, m) for n in range(4) for m in range(4)}
    for (n, m), fs in pool.items():
        for k in range(4):
            for f, g in itertools.product(fs, pool[m, k]):
                assert dg.compose(g, f) == ref.compose(g, f), (f, g)
    f, g = pool[1, 2][0], pool[3, 1][0]
    with pytest.raises(DiagramError, match="^cannot compose: middle lengths "
                       "2 != 3$"):
        dg.compose(g, f)


def test_spliteq_unit_laws_enumerated():
    for n, m in itertools.product(range(4), range(4)):
        if n + m > 5:
            continue
        for f in _all_spliteqs(n, m):
            assert dg.spliteq_compose(dg.spliteq_identity(m), f).same_as(f)
            assert dg.spliteq_compose(f, dg.spliteq_identity(n)).same_as(f)


def test_spliteq_compose_enumerated_associativity():
    # Every triple of diagrams with all four boundaries of total size <= 5
    # per diagram composes associatively.
    sizes = [(n, m) for n in range(4) for m in range(4) if n + m <= 5]
    pool = {(n, m): _all_spliteqs(n, m) for (n, m) in sizes if n + m <= 3}
    for (n, m), fs in pool.items():
        for (m2, k), gs in pool.items():
            if m2 != m:
                continue
            for (k2, l), hs in pool.items():
                if k2 != k:
                    continue
                for f, g, h in itertools.product(fs, gs, hs):
                    assert dg.spliteq_compose(h, dg.spliteq_compose(g, f)).same_as(
                        dg.spliteq_compose(dg.spliteq_compose(h, g), f))
    # Larger boundaries, randomized triples.
    rng = random.Random(77)
    for _ in range(60):
        n, m, k, l = (rng.randint(0, 5) for _ in range(4))
        f = _random_spliteq(rng, n, m)
        g = _random_spliteq(rng, m, k)
        h = _random_spliteq(rng, k, l)
        assert dg.spliteq_compose(h, dg.spliteq_compose(g, f)).same_as(
            dg.spliteq_compose(dg.spliteq_compose(h, g), f))
