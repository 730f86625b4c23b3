"""Pinned one-factor images, and the fold checked against the reference
composition (``compose_reference``) chained one factor at a time.

``data/factor_images.json`` holds ``dg.to_json`` of the one-factor fold
for every (target, variant) clause table, every generator kind in it, and
every prefix and index word of at most two letters.  It was recorded while ``fold`` still
composed one diagram per factor, so it pins each clause's image, labels
included.  The test rebuilds the whole record and compares it with the file
byte for byte.  Regenerate the file (only when an image is meant to change)
with ``PYTHONPATH=src python tests/test_fold.py``.
"""

import json
import random
from functools import reduce
from pathlib import Path

import pytest

import compose_reference as ref
from modalcoherence import diagram as dg
from modalcoherence.interp import _CLAUSES, VariantError, fold
from modalcoherence.terms import GENERATORS, Factor, chain_target

GOLDEN = Path(__file__).parent / "data" / "factor_images.json"
SHORT_WORDS = ["", "b", "d", "bb", "bd", "db", "dd"]


def factor_image(target: str, variant: str, factor: Factor) -> dg.Diagram:
    return fold(target, variant, factor.src, [factor])


def _record() -> str:
    lines = []
    for target, variant in sorted(_CLAUSES):
        for kind in sorted(_CLAUSES[target, variant]):
            for prefix in SHORT_WORDS:
                for index in SHORT_WORDS:
                    image = factor_image(target, variant,
                                         Factor(prefix, kind, index))
                    lines.append(json.dumps([target, variant, prefix, kind,
                                             index, dg.to_json(image)]))
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_golden_factor_images():
    assert _record() == GOLDEN.read_text()


def _walk(kinds: list[str], rng: random.Random) -> tuple[str, list[Factor]]:
    """A random factor walk of 1-12 steps over the given kinds, from a word
    of at most three letters, keeping every word at most six letters long."""
    src = "".join(rng.choice("bd") for _ in range(rng.randint(0, 3)))
    word, factors = src, []
    for _ in range(rng.randint(1, 12)):
        options = []
        for kind in kinds:
            pre = GENERATORS[kind][0]
            for depth in range(len(word) + 1):
                if word[depth:].startswith(pre):
                    f = Factor(word[:depth], kind, word[depth + len(pre):])
                    if len(f.tgt) <= 6:
                        options.append(f)
        if not options:
            break
        factors.append(rng.choice(options))
        word = factors[-1].tgt
    assert chain_target(src, factors) == word
    return src, factors


@pytest.mark.parametrize("table", sorted(_CLAUSES),
                         ids=[f"{t}-{v}" for t, v in sorted(_CLAUSES)])
def test_fold_equals_chained_composition(table):
    target, variant = table
    kinds = sorted(_CLAUSES[table])
    rng = random.Random(f"{target}/{variant}")
    for _ in range(150):
        src, factors = _walk(kinds, rng)
        if not factors:
            continue
        chained = reduce(lambda image, f: ref.compose(
            factor_image(target, variant, f), image),
            factors[1:], factor_image(target, variant, factors[0]))
        assert dg.to_json(fold(target, variant, src, factors)) \
            == dg.to_json(chained), (table, src, factors)


def test_fold_without_a_clause_raises_variant_error():
    chi = Factor("", "chi_bb", "")
    with pytest.raises(VariantError, match="^no std clause for generator "
                       "sigma_bb$"):
        fold("rel", "std", "bb", [chi, Factor("b", "sigma_bb", "")])
    with pytest.raises(VariantError, match="^no dual clause for generator "
                       "chi_bb$"):
        fold("gen", "dual", "bb", [chi])


if __name__ == "__main__":
    GOLDEN.write_text(_record())
