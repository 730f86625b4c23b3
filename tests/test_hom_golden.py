"""Pinned hom-sets: the exact ones of the box/diamond-mixing theories and the
bounded-search ones of the mixed S4-type theories.

``data/hom_spliteq.json`` holds, for s5 and fives, every word pair with at
most five boundary points and a seeded sample of pairs with eight and ten,
the arrows ``enum_hom`` returns: each arrow's ``diagram.to_json`` in the
order ``enum_hom`` lists them, with the string of its witness term.  The
record was made by the build-every-partition-then-filter enumeration, so it
pins that the shape-pruned generator returns the same arrows, in the same
order, with the same witnesses.

``data/hom_bounded.json`` holds the same fields, plus ``complete``, for every
theory whose hom-sets come from the bounded witness search, over every pair
of words of at most two letters (and, for s4_boxdia, ``bdb`` and ``dbd`` as
well) at budget 6.  It was recorded by the search that folded every path
whole, so it pins that stepping strand tables finds the same arrows, in the
same order, with the same witnesses.

``data/hom_structural.json`` holds the same fields as ``hom_spliteq.json``
for the relational theories whose hom-sets are exact (the box theories, their
diamond partners, s_chi and s4_dia_chi), over every word pair with at most
six boundary points.  It was recorded while each box theory's arrows were
the duals of its diamond partner's arrows, with dualized witness trees, so it
pins that building a box witness from the dual factor list gives the same
left-nested composites.

Regenerate the files (only when an arrow list is meant to change) with
``PYTHONPATH=src python tests/test_hom_golden.py``.
"""

import itertools
import json
import random
from pathlib import Path

from modalcoherence import diagram as dg
from modalcoherence.decide import HomQuery, enum_hom

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "hom_spliteq.json"
GOLDEN_BOUNDED = DATA / "hom_bounded.json"
GOLDEN_STRUCTURAL = DATA / "hom_structural.json"
THEORIES = ("s5", "fives")
# (boundary points, pairs sampled per theory)
SAMPLES = ((8, 6), (10, 3))
BOUNDED_THEORIES = (
    "s4_boxdia", "s42", "s4_box_chi", "s4_boxdia_chi", "splus_chi_op",
    "t_boxdia", "k4_boxdia", "s41", "s42_iso", "s4_boxdia_sharp", "s42_sharp")
BOUNDED_EXTRA_WORDS = {"s4_boxdia": ("bdb", "dbd")}
STRUCTURAL_THEORIES = ("t_box", "t_dia", "k4_box", "k4_dia", "s4_box",
                       "s4_dia", "s_chi", "s4_dia_chi")


def _words(n: int) -> list[str]:
    return ["".join(w) for w in itertools.product("bd", repeat=n)]


def _pairs() -> list[tuple[str, str, str]]:
    pairs = []
    for theory in THEORIES:
        for points in range(6):
            for m in range(points + 1):
                for src in _words(m):
                    for tgt in _words(points - m):
                        pairs.append((theory, src, tgt))
    rng = random.Random(8)
    for theory in THEORIES:
        for points, count in SAMPLES:
            for _ in range(count):
                m = rng.randint(0, points)
                src = "".join(rng.choice("bd") for _ in range(m))
                tgt = "".join(rng.choice("bd") for _ in range(points - m))
                pairs.append((theory, src, tgt))
    return pairs


def _bounded_pairs() -> list[tuple[str, str, str]]:
    pairs = []
    for theory in BOUNDED_THEORIES:
        words = _words(0) + _words(1) + _words(2)
        words += BOUNDED_EXTRA_WORDS.get(theory, ())
        pairs += [(theory, src, tgt) for src in words for tgt in words]
    return pairs


def _structural_pairs() -> list[tuple[str, str, str]]:
    return [(theory, src, tgt)
            for theory in STRUCTURAL_THEORIES
            for points in range(7)
            for m in range(points + 1)
            for src in _words(m)
            for tgt in _words(points - m)]


def _entry(theory: str, src: str, tgt: str) -> dict:
    result = enum_hom(HomQuery(theory, src, tgt, 6))
    entry = {"theory": theory, "src": src, "tgt": tgt}
    if theory in THEORIES or theory in STRUCTURAL_THEORIES:
        assert result.complete
    else:
        entry["complete"] = result.complete
    entry["arrows"] = [[dg.to_json(d), str(result.witnesses[d.key()])]
                       for d in result.diagrams]
    return entry


def _record(pairs: list[tuple[str, str, str]]) -> str:
    entries = [json.dumps(_entry(*pair)) for pair in pairs]
    return "[\n" + ",\n".join(entries) + "\n]\n"


def test_golden_hom_spliteq():
    text = GOLDEN.read_text()
    assert len(text.encode()) < 1_000_000
    assert _record(_pairs()) == text


def test_golden_hom_bounded():
    text = GOLDEN_BOUNDED.read_text()
    entries = json.loads(text)
    assert len(entries) == 571
    assert not any(e["complete"] for e in entries)
    assert _record(_bounded_pairs()) == text


def test_golden_hom_structural():
    text = GOLDEN_STRUCTURAL.read_text()
    entries = json.loads(text)
    assert len(entries) == 6152
    assert sum(len(e["arrows"]) for e in entries) == 750
    assert _record(_structural_pairs()) == text


if __name__ == "__main__":
    GOLDEN.write_text(_record(_pairs()))
    GOLDEN_BOUNDED.write_text(_record(_bounded_pairs()))
    GOLDEN_STRUCTURAL.write_text(_record(_structural_pairs()))
