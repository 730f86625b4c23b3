"""Reference bounded hom-set search, independent of the move table and the
target prune of ``decide._bounded_search``: a breadth-first search over
(word, strand table) states that lists each word's moves afresh for every
query and follows every edge to a word of at most ``max_len`` letters.
Tests compare the library's search against it.
"""

from typing import Optional

from modalcoherence import diagram as dg
from modalcoherence.decide import HomQuery, HomResult
from modalcoherence.interp import STD, _image, plain_frame
from modalcoherence.terms import Factor, factors_to_term
from modalcoherence.theories import REL, applicable_factors, get_theory


def bounded_search(q: HomQuery) -> HomResult:
    """The arrows, in key order, and witnesses of the bounded search for
    ``q``, as :func:`decide.enum_hom` lists them; the theory must have a
    relational base functor.  Every state is visited once, and the first
    path to reach a relation on the target word is its witness."""
    theory = get_theory(q.theory)
    base = theory.base
    result = HomResult(q, complete=False)
    max_len = max(len(q.src), len(q.tgt)) + 2
    frame = plain_frame(REL, STD)
    moves: dict[str, list[tuple[str, Factor, dg.Step]]] = {}
    start = tuple(1 << i for i in range(len(q.src)))
    states = {(q.src, start)}
    frontier: list[tuple[str, tuple, Optional[tuple]]] = [(q.src, start, None)]
    found: dict[tuple, Optional[tuple]] = {}
    if q.src == q.tgt:
        found[start] = None
    for _ in range(q.witness_budget):
        grown = []
        for word, table, path in frontier:
            if word not in moves:
                factors = [f for f in applicable_factors(base, word)
                           if len(f.tgt) <= max_len]
                moves[word] = list(zip([f.tgt for f in factors], factors,
                                       frame.steps(factors)))
            for new_word, factor, step in moves[word]:
                stepped = list(table)
                dg.rel_step(stepped, step)
                new_table = tuple(stepped)
                if (new_word, new_table) in states:
                    continue
                states.add((new_word, new_table))
                new_path = (factor, path)
                grown.append((new_word, new_table, new_path))
                if new_word == q.tgt and new_table not in found:
                    found[new_table] = new_path
        frontier = grown
    arrows = []
    for table, path in found.items():
        factors: list[Factor] = []
        while path is not None:
            factor, path = path
            factors.append(factor)
        factors.reverse()
        arrows.append((dg.fold_finish(len(q.src), table, None, q.src, q.tgt),
                       factors))
    arrows.sort(key=lambda arrow: arrow[0].key())
    for diag, factors in arrows:
        if theory.quotient is not None:
            diag = _image(theory, STD, q.src, q.tgt, factors)
            if any(diag.same_as(seen) for seen in result.diagrams):
                continue
        result.diagrams.append(diag)
        result.witnesses[diag.key()] = factors_to_term(q.src, factors)
    result.diagrams.sort(key=lambda d: d.key())
    return result
