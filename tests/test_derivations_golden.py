"""Pinned derivations and directed normal forms.

``data/derivations.json`` holds the derivation JSON that
``prove_equal_bounded`` returns for every 25th pair of each theory of the
criterion 08 sweep, plus the one s42 pair that greedy normalization does not
join, and ``directed_normalize``'s normal form and steps (every field) for 50
seeded random terms in each of ten theories.  The file was recorded before
schema matching was anchored, so it pins that the anchored matchers, the
per-theory tables and the factor-level guard keep every derivation.  The test
rebuilds the whole record and compares it with the file byte for byte.
Regenerate the file (only when a derivation is meant to change) with
``PYTHONPATH=src python tests/test_derivations_golden.py``.
"""

import dataclasses
import json
import random
from pathlib import Path

from modalcoherence.decide import random_term
from modalcoherence.interp import interp
from modalcoherence.rewrite import directed_normalize, prove_equal_bounded
from modalcoherence.terms import Factor, factors_to_term, term_factors
from modalcoherence.theories import enumerate_factor_terms

GOLDEN = Path(__file__).parent / "data" / "derivations.json"

SWEEP_SOURCES = {
    "t_box": ["b" * k for k in range(6)],
    "s4_box": ["b", "bb", "bbb"],
    "s4_dia": ["d", "dd", "ddd"],
    "s4_boxdia": ["", "b", "d", "bb", "bd", "db", "dd"],
    "s42": ["", "b", "d", "bb", "bd", "db", "dd"],
    "s5": ["", "b", "d", "bb", "bd", "db", "dd"],
}
EVERY = 25
# The sweep pair that the greedy directed meet does not join.
GREEDY_MISS = ("s42", "db",
               [("", "chi_db", ""), ("", "delta_bb", "d"),
                ("", "delta_bb", "bd")],
               [("d", "delta_bb", ""), ("", "chi_db", "b"),
                ("", "delta_bb", "db"), ("bb", "chi_db", "")])
NORMALIZE_THEORIES = ["s4_boxdia", "s42", "s5", "fives", "s4_boxdia_chi",
                      "s4_box_chi", "splus_chi_op", "t_box", "k4_boxdia",
                      "s41"]
WORDS = ["", "b", "d", "bb", "dd", "bd", "db", "bdb", "dbd"]


def _sweep_pairs(tid: str) -> list:
    """The criterion 08 pairs of a theory, in the order the sweep visits
    them: each image group's first term against every other member."""
    groups: dict = {}
    for src in SWEEP_SOURCES[tid]:
        for factors in enumerate_factor_terms(tid, src, 4):
            term = factors_to_term(src, factors)
            tgt = factors[-1].tgt if factors else src
            groups.setdefault((src, tgt, interp(tid, term).key()),
                              []).append(term)
    return [(group[0], other) for group in groups.values()
            for other in group[1:]]


def _proofs() -> list[dict]:
    cases = []
    for tid in SWEEP_SOURCES:
        for left, right in _sweep_pairs(tid)[::EVERY]:
            cases.append((tid, left, right))
    tid, src, left, right = GREEDY_MISS
    cases.append((tid, *(factors_to_term(src, [Factor(*f) for f in side])
                         for side in (left, right))))
    return [{"theory": tid, "left": str(left), "right": str(right),
             "derivation": prove_equal_bounded(tid, left, right).to_json()}
            for tid, left, right in cases]


def _normal_forms() -> list[dict]:
    rng = random.Random(5)
    cases = []
    for tid in NORMALIZE_THEORIES:
        for _ in range(50):
            term = random_term(tid, rng.choice(WORDS), rng.randint(1, 8), rng)
            src, _, factors = term_factors(term)
            nf, steps = directed_normalize(tid, src, tuple(factors))
            cases.append({"theory": tid, "term": str(term),
                          "nf": str(factors_to_term(src, list(nf))),
                          "steps": [dataclasses.astuple(s) for s in steps]})
    return cases


def _render() -> str:
    record = {"proofs": _proofs(), "normal_forms": _normal_forms()}
    return json.dumps(record, indent=1) + "\n"


def test_golden_derivations():
    assert _render() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(_render())
