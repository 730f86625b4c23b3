"""Pinned staged normal forms and the rejection contract of synthesis.

``data/normal_forms.json`` holds, for 20 seeded random terms per synthesis
theory, the term and the string of ``synthesize(theory, interp(theory,
term))``.  The strings were recorded by the per-theory synthesis functions
that ``theories.STAGES`` replaced, so they pin that the stage pipeline keeps
every normal form.  Regenerate the file (only when a normal form is meant to
change) with ``PYTHONPATH=src python tests/test_synthesis_golden.py``.
"""

import json
import random
from pathlib import Path

import pytest

from modalcoherence import diagram as dg
from modalcoherence.decide import (
    _EXACT_REALIZABLE,
    SYNTHESIS_THEORIES,
    SynthesisError,
    random_term,
    realizable,
    synthesize,
)
from modalcoherence.interp import interp
from modalcoherence.terms import Id, parse_term
from modalcoherence.theories import get_theory

GOLDEN = Path(__file__).parent / "data" / "normal_forms.json"
WORDS = ["", "b", "d", "bb", "dd", "bd", "db", "bdb", "dbd", "bbd", "ddb",
         "bbbb", "dddd", "bdbd", "dbdb"]


def _record() -> list[dict]:
    rng = random.Random(2)
    cases = []
    for tid in sorted(SYNTHESIS_THEORIES):
        for _ in range(20):
            for _attempt in range(10):  # prefer words the theory can act on
                term = random_term(tid, rng.choice(WORDS), rng.randint(1, 10),
                                   rng)
                if not isinstance(term, Id):
                    break
            cases.append({"theory": tid, "term": str(term),
                          "nf": str(synthesize(tid, interp(tid, term)))})
    return cases


def test_golden_normal_forms():
    cases = json.loads(GOLDEN.read_text())
    assert {c["theory"] for c in cases} == set(SYNTHESIS_THEORIES)
    for case in cases:
        term = parse_term(case["term"])
        nf = synthesize(case["theory"], interp(case["theory"], term))
        assert str(nf) == case["nf"], case


def _random_word(rng: random.Random) -> str:
    return "".join(rng.choice("bd") for _ in range(rng.randint(0, 4)))


def _random_rel(rng: random.Random, tid: str) -> dg.RelDiagram:
    """A labelled relation with boundaries of at most 4: uniform at random,
    or the image of a random term with one pair toggled half the time (so
    that near misses of the image are tried as well)."""
    src = _random_word(rng)
    if rng.random() < 0.5:
        image = interp(tid, random_term(tid, src, rng.randint(0, 4), rng))
        if image.tgt_len <= 4:
            pairs, tgt = set(image.pairs), image.tgt_word
            if src and tgt and rng.random() < 0.5:
                pairs ^= {(rng.randrange(len(src)), rng.randrange(len(tgt)))}
            return dg.rel(len(src), len(tgt), pairs, src, tgt)
    tgt = _random_word(rng)
    density = rng.choice([0.2, 0.35, 0.5])
    pairs = [(i, j) for i in range(len(src)) for j in range(len(tgt))
             if rng.random() < density]
    return dg.rel(len(src), len(tgt), pairs, src, tgt)


_RELATIONAL = sorted(tid for tid in SYNTHESIS_THEORIES
                     if get_theory(tid).target == "rel")


@pytest.mark.parametrize("tid", _RELATIONAL)
def test_synthesis_rejection_contract(tid):
    # On any labelled relation, synthesis either returns a term whose image
    # is the relation or raises SynthesisError; it never lets an ill-typed
    # term through to the interpreter.
    rng = random.Random(tid)
    accepted = 0
    for _ in range(400):
        d = _random_rel(rng, tid)
        try:
            term = synthesize(tid, d)
        except SynthesisError:
            ok = False
        else:
            assert interp(tid, term).same_as(d)
            ok = True
        accepted += ok
        if tid in _EXACT_REALIZABLE:
            assert realizable(tid, d) == ok, (d.src_word, d.tgt_word,
                                              sorted(d.pairs))
    assert 0 < accepted < 400


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_record(), indent=1) + "\n")
