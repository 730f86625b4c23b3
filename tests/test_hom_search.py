"""The bounded hom-set search against the reference search
(``hom_search_reference``), which lists each word's moves afresh for every
query and follows every edge within the length bound."""

import itertools

from modalcoherence import diagram as dg
from modalcoherence.decide import HomQuery, enum_hom

import hom_search_reference as ref

# Every theory whose hom-sets come from the bounded search.
THEORIES = ("k", "k4_boxdia", "s41", "s42", "s42_iso", "s42_sharp",
            "s4_box_chi", "s4_boxdia", "s4_boxdia_chi", "s4_boxdia_sharp",
            "splus_chi_op", "t_boxdia")
WORDS = ["".join(w) for n in range(4) for w in itertools.product("bd", repeat=n)]


def _listing(result) -> tuple:
    return (result.complete,
            [(dg.to_json(d), str(result.witnesses[d.key()]))
             for d in result.diagrams])


def test_bounded_search_matches_reference():
    # The theories run interleaved, so a move table shared between two
    # theories would give one of them the other's moves.
    queries = 0
    for budget in range(7):
        for src, tgt in itertools.product(WORDS, repeat=2):
            for theory in THEORIES:
                q = HomQuery(theory, src, tgt, budget)
                assert _listing(enum_hom(q)) == _listing(ref.bounded_search(q)), q
                queries += 1
    assert queries == 18_900
