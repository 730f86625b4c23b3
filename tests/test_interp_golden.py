"""Pinned functor images.

``data/images.json`` holds, for every (theory, variant) pair the functors
accept, seeded random terms and the JSON of their images: ten walks of 0-10
generators and two of 64 per pair.  The images were recorded by the recursive
evaluators that the fold over the factor spine replaced, so they pin that
every image is unchanged, labels included.  Regenerate the file (only when an
image is meant to change) with ``PYTHONPATH=src python
tests/test_interp_golden.py``.
"""

import json
import random
from pathlib import Path

from modalcoherence import diagram as dg
from modalcoherence.decide import random_term
from modalcoherence.interp import VARIANTS, VariantError, check_variant, interp
from modalcoherence.terms import parse_term
from modalcoherence.theories import REGISTRY

GOLDEN = Path(__file__).parent / "data" / "images.json"
WORDS = ["", "b", "d", "bb", "dd", "bd", "db", "bdb", "dbd", "bbd", "ddb"]


def _pairs() -> list[tuple[str, str]]:
    pairs = []
    for tid in sorted(REGISTRY):
        for variant in VARIANTS:
            try:
                check_variant(REGISTRY[tid], variant)
            except VariantError:
                continue
            pairs.append((tid, variant))
    return pairs


def _record() -> list[dict]:
    rng = random.Random(3)
    cases = []
    for tid, variant in _pairs():
        for n in [rng.randint(0, 10) for _ in range(10)] + [64, 64]:
            term = random_term(tid, rng.choice(WORDS), n, rng)
            cases.append({"theory": tid, "variant": variant, "term": str(term),
                          "image": dg.to_json(interp(tid, term, variant))})
    return cases


def test_golden_images():
    cases = json.loads(GOLDEN.read_text())
    assert {(c["theory"], c["variant"]) for c in cases} == set(_pairs())
    for case in cases:
        image = interp(case["theory"], parse_term(case["term"]), case["variant"])
        assert dg.to_json(image) == case["image"], case


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_record(), indent=1) + "\n")
