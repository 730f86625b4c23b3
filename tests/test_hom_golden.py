"""Pinned exact hom-sets of the two box/diamond-mixing theories.

``data/hom_spliteq.json`` holds, for s5 and fives, every word pair with at
most five boundary points and a seeded sample of pairs with eight and ten,
the arrows ``enum_hom`` returns: each arrow's ``diagram.to_json`` in the
order ``enum_hom`` lists them, with the string of its witness term.  The
record was made by the build-every-partition-then-filter enumeration, so it
pins that the shape-pruned generator returns the same arrows, in the same
order, with the same witnesses.  Regenerate the file (only when an arrow
list is meant to change) with ``PYTHONPATH=src python tests/test_hom_golden.py``.
"""

import itertools
import json
import random
from pathlib import Path

from modalcoherence import diagram as dg
from modalcoherence.decide import HomQuery, enum_hom

GOLDEN = Path(__file__).parent / "data" / "hom_spliteq.json"
THEORIES = ("s5", "fives")
# (boundary points, pairs sampled per theory)
SAMPLES = ((8, 6), (10, 3))


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


def _record() -> str:
    entries = []
    for theory, src, tgt in _pairs():
        result = enum_hom(HomQuery(theory, src, tgt))
        assert result.complete
        entries.append({
            "theory": theory, "src": src, "tgt": tgt,
            "arrows": [[dg.to_json(d), str(result.witnesses[d.key()])]
                       for d in result.diagrams]})
    return "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"


def test_golden_hom_spliteq():
    text = GOLDEN.read_text()
    assert len(text.encode()) < 1_000_000
    assert _record() == text


if __name__ == "__main__":
    GOLDEN.write_text(_record())
