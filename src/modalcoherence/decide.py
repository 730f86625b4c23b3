"""Diagram realizability, diagram-directed term synthesis, hom-set
enumeration, and the mirror isomorphism between the two box/diamond-mixing
theories.

Synthesis inverts the coherence functor: given a diagram in the image of a
theory's functor, it produces a term in the theory's staged normal form whose
interpretation is exactly that diagram.  Stages follow each theory's
factorization, declared in ``theories.STAGES`` (deletions, duplications,
permutations, merges, insertions, or the kill/cup and birth/cap stages of the
split-equivalence theories), and within a stage generators are applied at the
largest position first, which makes the output canonical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from random import Random
from typing import Optional

from . import diagram as dg
from .interp import STD, _image, plain_frame, side_frame
from .terms import (
    ArrowTerm,
    App,
    BOX,
    Comp,
    DIA,
    MIRROR_KIND,
    Factor,
    GENERATORS,
    Gen,
    Id,
    TermError,
    chain_target,
    check_word,
    dual_factors,
    factors_to_term,
    letter_at,
    map_term,
    mirror_factor,
    rev_word,
    swap_word,
)
from .theories import (
    GEN,
    REL,
    STAGES,
    Theory,
    applicable_factors,
    check_admitted,
    get_theory,
)

SYNTHESIS_THEORIES = frozenset({
    "t_box", "t_dia", "k4_box", "k4_dia", "s4_box", "s4_dia", "s_chi",
    "splus_chi_op", "s4_box_chi", "s4_dia_chi", "s4_boxdia", "s42",
    "s4_boxdia_chi", "s5", "fives"})


class SynthesisError(TermError):
    pass


def _require_words(d: dg.Diagram) -> tuple[str, str]:
    if d.src_word is None or d.tgt_word is None:
        raise SynthesisError("diagram needs source and target word labels")
    return d.src_word, d.tgt_word


class _Builder:
    """Emits elementary factors of one theory while tracking the evolving
    word; positions count from the right."""

    def __init__(self, theory: Theory, word: str):
        self.theory = theory
        self.word = word
        self.factors: list[Factor] = []

    def emit(self, kind: str, pos: int) -> None:
        if not self.theory.admits(kind):
            raise SynthesisError(f"{kind} is not in theory {self.theory.id}")
        src_pre, tgt_pre = GENERATORS[kind]
        w = self.word
        cut = len(w) - pos
        index, covered, prefix = w[cut:], w[cut - len(src_pre):cut], w[:cut - len(src_pre)]
        if covered != src_pre:
            raise SynthesisError(
                f"cannot apply {kind} at position {pos} of {w!r}")
        self.factors.append(Factor(prefix, kind, index))
        self.word = prefix + tgt_pre + index


def _dualized(d: dg.RelDiagram) -> dg.RelDiagram:
    """Converse with both boundary words letter-swapped; this matches the
    action of term dualization on interpretations."""
    return dg.rel(d.tgt_len, d.src_len, ((j, i) for i, j in d.pairs),
                  swap_word(d.tgt_word), swap_word(d.src_word))


# ---------------------------------------------------------------------------
# Synthesis for the relational theories


def _synth_staged(theory: Theory, d: dg.RelDiagram) -> list[Factor]:
    """Run the theory's stages, in the order ``theories.STAGES`` declares,
    on a bottom-up list of (sources, targets) strands, one per source at the
    start.  Each stage applies its generator at the largest position first:

    - ``eps_box`` deletes the strands that have no target;
    - ``delta_bb`` splits a strand into one strand per target;
    - a ``chi`` kind bubbles strands into (targets, sources) order, making
      only the swaps of that kind;
    - ``delta_dd`` merges adjacent strands with equal target sets;
    - ``eps_dia`` inserts a strand for each unlinked target.

    The diagram is in the image exactly when the strands end up as the
    targets 0..n-1 in order under the target word.
    """
    src, tgt = _require_words(d)
    targets_of: list[list[int]] = [[] for _ in range(d.src_len)]
    for i, j in sorted(d.pairs):
        targets_of[i].append(j)
    strands = [((i,), tuple(ts)) for i, ts in enumerate(targets_of)]
    builder = _Builder(theory, src)
    for kind in STAGES[theory.id]:
        if kind == "eps_box":
            for p in reversed(range(len(strands))):
                if not strands[p][1]:
                    builder.emit(kind, p)
                    del strands[p]
        elif kind == "delta_bb":
            for p in reversed(range(len(strands))):
                sources, targets = strands[p]
                if len(targets) > 1:
                    for _ in targets[1:]:
                        builder.emit(kind, p)
                    strands[p:p + 1] = [(sources, (j,)) for j in targets]
        elif kind == "delta_dd":
            for p in reversed(range(len(strands) - 1)):
                if strands[p][1] == strands[p + 1][1]:
                    builder.emit(kind, p)
                    strands[p] = (strands[p][0] + strands[p + 1][0], strands[p][1])
                    del strands[p + 1]
        elif kind == "eps_dia":
            present = {j for _, targets in strands for j in targets}
            below = len(strands)
            for q in reversed(range(d.tgt_len)):
                if q in present:
                    continue
                while below and strands[below - 1][1] > (q,):
                    below -= 1
                builder.emit(kind, below)
                strands.insert(below, ((), (q,)))
        else:
            p = len(strands) - 2
            while p >= 0:
                lower, upper = strands[p], strands[p + 1]
                if ((lower[1], lower[0]) > (upper[1], upper[0]) and kind[4:] ==
                        letter_at(builder.word, p + 1) + letter_at(builder.word, p)):
                    builder.emit(kind, p)
                    strands[p], strands[p + 1] = upper, lower
                    p = min(p + 1, len(strands) - 2)
                else:
                    p -= 1
    if ([targets for _, targets in strands] != [(j,) for j in range(d.tgt_len)]
            or builder.word != tgt):
        raise SynthesisError(f"the stages of {theory.id} do not reach the diagram")
    return builder.factors


# ---------------------------------------------------------------------------
# Split-equivalence side (the box/diamond-mixing theories)


def class_shape(d: dg.SplitEq, cls: tuple) -> Optional[str]:
    """Shape of a partition class: 'b' when headed by its rightmost source (a
    box, other sources diamonds, targets boxes), 'd' when headed by its
    rightmost target (a diamond, other targets boxes, sources diamonds)."""
    src, tgt = d.src_word, d.tgt_word
    sources = sorted(i for side, i in cls if side == "s")
    targets = sorted(j for side, j in cls if side == "t")
    if (sources and letter_at(src, sources[0]) == BOX
            and all(letter_at(src, i) == DIA for i in sources[1:])
            and all(letter_at(tgt, j) == BOX for j in targets)):
        return BOX
    if (targets and letter_at(tgt, targets[0]) == DIA
            and all(letter_at(tgt, j) == BOX for j in targets[1:])
            and all(letter_at(src, i) == DIA for i in sources)):
        return DIA
    return None


def _kill_cup(word: str, strands: list[int], strand_of: dict[int, int],
              tgt: str) -> list[Factor]:
    """Kill/cup synthesis on ``word``, whose letters carry the classes
    ``strands`` bottom-up: diamond cups join adjacent letters of one class,
    and a class's last letter, a box, is killed when the class has no strand
    in ``strand_of``, at the largest position first.  The letters must end
    up as the strands 0, 1, ... in order, on the word ``tgt``."""
    builder = _Builder(get_theory("s5"), word)
    strands = list(strands)
    remaining = {num: strands.count(num) for num in set(strands)}
    while True:
        cup_at = [p for p in range(len(strands) - 1)
                  if strands[p] == strands[p + 1]
                  and letter_at(builder.word, p + 1) == DIA]
        kill_at = [p for p in range(len(strands))
                   if strands[p] not in strand_of and remaining[strands[p]] == 1
                   and letter_at(builder.word, p) == BOX]
        best_cup = cup_at[-1] if cup_at else -1
        best_kill = kill_at[-1] if kill_at else -1
        if best_cup < 0 and best_kill < 0:
            break
        if best_cup >= best_kill:
            p = best_cup
            # Joins strand p+1 (a diamond) down into strand p.
            builder.emit("delta_dd" if letter_at(builder.word, p) == DIA
                         else "delta_db", p)
            remaining[strands[p]] -= 1
            del strands[p + 1]
        else:
            p = best_kill
            builder.emit("eps_box", p)
            remaining[strands[p]] -= 1
            del strands[p]
    if [strand_of.get(num) for num in strands] != list(range(len(strand_of))):
        raise SynthesisError("class strands do not line up with the middle word")
    if builder.word != tgt:
        raise SynthesisError(f"middle word mismatch: {builder.word!r} != {tgt!r}")
    return builder.factors


def _synth_s5(d: dg.SplitEq) -> list[Factor]:
    """Two-stage synthesis read off the partition.  Each class with sources
    and targets is one strand of a middle word, in the order of its lowest
    source, with its shape for a letter.  A kill/cup stage (counit-box and
    diamond cups) reduces the source word onto the middle word; a birth/cap
    stage (counit-diamond and box caps) grows it out to the target word, as
    the dual of the kill/cup stage of the letter-swapped target word."""
    src, tgt = _require_words(d)
    if not dg.is_noncrossing(d):
        raise SynthesisError("diagram is not planar")
    src_class, tgt_class = [0] * d.src_len, [0] * d.tgt_len
    shapes = []
    for num, cls in enumerate(d.classes):
        shapes.append(class_shape(d, cls))
        if shapes[-1] is None:
            raise SynthesisError("a class violates the head-shape discipline")
        for side, i in cls:
            (src_class if side == "s" else tgt_class)[i] = num
    with_targets = set(tgt_class)
    strand_of: dict[int, int] = {}
    for num in src_class:
        if num in with_targets and num not in strand_of:
            strand_of[num] = len(strand_of)
    mid = "".join(shapes[num] for num in reversed(strand_of))
    return (_kill_cup(src, src_class, strand_of, mid)
            + dual_factors(_kill_cup(swap_word(tgt), tgt_class, strand_of,
                                     swap_word(mid))))


# ---------------------------------------------------------------------------
# Synthesis routes through a partner theory


def _left_nested(src: str, factors: list[Factor]) -> ArrowTerm:
    """The composite of the factors nested to the left, first factor
    innermost: the shape :func:`terms.dualize` gives the dual of a staged
    term, whose composites nest to the right."""
    if not factors:
        return Id(src)
    term = factors[-1].to_term()
    for factor in reversed(factors[:-1]):
        term = Comp(term, factor.to_term())
    return term


# A theory synthesized in a partner theory, by the partner's id and the maps
# that carry a word pair, a diagram and a factor list between the two (each
# map is its own inverse), with the builder of the witness tree from the
# carried factor list.  A box theory's partner is its dual diamond theory,
# and fives' is s5, its mirror image.
_DUAL = (lambda src, tgt: (swap_word(tgt), swap_word(src)), _dualized,
         dual_factors, _left_nested)
_PARTNERS = {
    "t_box": ("t_dia", *_DUAL),
    "k4_box": ("k4_dia", *_DUAL),
    "s4_box": ("s4_dia", *_DUAL),
    "fives": ("s5", lambda src, tgt: (rev_word(src), rev_word(tgt)), dg.mirror,
              lambda factors: [mirror_factor(f) for f in factors],
              factors_to_term),
}


def _staged(theory: Theory, d: dg.Diagram) -> list[Factor]:
    """The theory's staged factor list for ``d``, unchecked; a theory with a
    partner carries ``d`` to it and the partner's list back."""
    if theory.id in _PARTNERS:
        partner, _, diagram, factors, _ = _PARTNERS[theory.id]
        return factors(_staged(get_theory(partner), diagram(d)))
    if theory.id == "s5":
        return _synth_s5(d)
    if theory.id not in SYNTHESIS_THEORIES:
        raise SynthesisError(f"no synthesis procedure for theory {theory.id}")
    return _synth_staged(theory, d)


def _witness(theory: Theory, d: dg.Diagram, factors: list[Factor]) -> ArrowTerm:
    """Check a staged factor list once, as :func:`interp.interp` checks a
    term (the chain of words, the theory's generators and index constraint),
    with an image that must equal ``d``; then build its tree.

    The image is compared by its strand-table key (:meth:`Frame.key`)
    against the key of ``d`` folded as one step; no diagram is built."""
    src = d.src_word
    factor_tgt = chain_target(src, factors)
    check_admitted(theory, factors)
    frame = side_frame(theory, STD)
    links = d.pairs if isinstance(d, dg.RelDiagram) else d.classes
    table, parent = dg.fold_start(frame.kind, d.src_len)
    dg.fold_steps(table, parent, [(0, d.src_len, d.tgt_len, links, 0)])
    if (frame.key(src, factor_tgt, factors)
            != dg.fold_key(d.src_len, table, parent)):
        raise SynthesisError("synthesis produced a term with a different image")
    build = _PARTNERS[theory.id][4] if theory.id in _PARTNERS else factors_to_term
    return build(src, factors)


def synthesize(theory: "Theory | str", d: dg.Diagram) -> ArrowTerm:
    """Produce the staged-normal-form term whose interpretation is ``d``.

    Raises SynthesisError when the diagram is not in the functor's image (or
    the theory has no synthesis procedure).  The staged factor list comes
    from :func:`_staged`, and is checked once in this theory.  A box
    theory's term nests its composites to the left, as the dual of its
    diamond partner's staged term does.
    """
    theory = get_theory(theory)
    _require_words(d)
    if isinstance(d, dg.SplitEq) != (theory.target == GEN):
        raise SynthesisError(
            f"theory {theory.id} has no {type(d).__name__} diagrams")
    return _witness(theory, d, _staged(theory, d))


# ---------------------------------------------------------------------------
# Realizability


def realizable(theory: "Theory | str", d: dg.Diagram,
               budget: int = 6) -> bool:
    """Is ``d`` the image of some deduction of the theory?

    For theories with a structural characterization this is exact.  For the
    rest, a successful synthesis answers yes immediately; otherwise the
    answer comes from a bounded witness search (sound, and complete only up
    to the budget).
    """
    theory = get_theory(theory)
    _require_words(d)
    if theory.id in SYNTHESIS_THEORIES:
        try:
            synthesize(theory, d)
            return True
        except SynthesisError:
            if theory.id in _EXACT_REALIZABLE:
                return False
    result = enum_hom(HomQuery(theory.id, d.src_word, d.tgt_word, budget))
    return any(d.same_as(found) for found in result.diagrams)


# ---------------------------------------------------------------------------
# Hom-set enumeration


@dataclass(frozen=True)
class HomQuery:
    theory: str
    src: str
    tgt: str
    witness_budget: int = 6

    def __post_init__(self):
        check_word(self.src)
        check_word(self.tgt)
        if self.witness_budget < 0:
            raise ValueError(f"witness budget must be non-negative, "
                             f"got {self.witness_budget}")


@dataclass
class HomResult:
    query: HomQuery
    diagrams: list[dg.Diagram] = field(default_factory=list)
    witnesses: dict[tuple, ArrowTerm] = field(default_factory=dict)
    complete: bool = True

    def __len__(self) -> int:
        return len(self.diagrams)


def _enum_spliteq(src: str, tgt: str) -> list[dg.SplitEq]:
    """The arrows of s5 from ``src`` to ``tgt``: the noncrossing partitions
    of the boundary every class of which has a head shape.

    Call a source box or a target diamond *marked*.  By
    :func:`class_shape`, a class has a shape exactly when it has one marked
    member, its head, and the head is its lowest source or its lowest
    target.  Along the boundary cycle (sources at descending index, then
    targets at ascending index) the head is the last source or the first
    target of its class.

    The partitions of a segment ``[lo, hi)`` of the cycle are generated by
    choosing the class of ``lo`` one member at a time, dropping the choice
    as soon as a member breaks the rule above, and partitioning each gap
    between consecutive members, and the segment after the last member,
    independently; each segment's list is made once per call.  This is the
    recursion that generates every noncrossing partition once (planarity is
    exactly the independence of the gaps, Kreweras 1972), and since the
    shape rule is a condition on each class alone, pruning a class the
    moment it breaks the rule keeps exactly the partitions a filter of every
    noncrossing partition by shape would keep.  Only those become diagrams.
    """
    m = len(src)
    cycle = [("s", i) for i in range(m - 1, -1, -1)]
    cycle += [("t", j) for j in range(len(tgt))]
    marked = [letter_at(src, i) == BOX if side == "s" else
              letter_at(tgt, i) == DIA for side, i in cycle]
    # marks[k]: the marked positions before k.  A nonempty segment with none
    # has no partition, since every class needs its marked member.
    marks = list(itertools.accumulate(marked, initial=0))

    def extends(members: tuple, head: Optional[int], nxt: int) -> bool:
        # Can ``nxt`` join the class ``members`` whose marked member is
        # ``head``?  Sources precede targets along the cycle.
        last = members[-1]
        if marked[nxt] and head is not None:
            return False
        if head == last and last < m and nxt < m:
            return False  # a marked source followed by a source
        return not (marked[nxt] and nxt >= m and last >= m)

    # Each segment's partitions are computed by a generator that yields the
    # segments it needs and is sent their partitions, so nesting depth costs
    # no recursion.
    def segment(lo: int, hi: int):
        out = []
        stack = [((lo,), lo if marked[lo] else None, ())]
        while stack:
            members, head, gaps = stack.pop()
            last = members[-1]
            before = marks[last + 1]
            if head is None and marks[hi] == before:
                continue  # no marked member is left to join
            for nxt in range(last + 1, hi):
                if marks[nxt] == before and nxt > last + 1:
                    continue  # the gap before nxt has no partition
                if extends(members, head, nxt) and (yield (last + 1, nxt)):
                    stack.append((members + (nxt,),
                                  nxt if marked[nxt] else head,
                                  gaps + ((last + 1, nxt),)))
            if head is None:
                continue  # a class needs its marked member
            rest = yield (last + 1, hi)
            for parts in itertools.product(*(memo[g] for g in gaps), rest):
                out.append((members,) + tuple(itertools.chain(*parts)))
        return out

    whole = (0, len(cycle))
    memo: dict[tuple[int, int], list] = {
        (k, k): [()] for k in range(len(cycle) + 1)}
    pending = [] if whole in memo else [(whole, segment(*whole))]
    reply = None
    while pending:
        key, gen = pending[-1]
        try:
            need = gen.send(reply)
        except StopIteration as done:
            memo[key] = reply = done.value
            pending.pop()
            continue
        reply = memo.get(need)
        if reply is None:
            pending.append((need, segment(*need)))
    return [dg.spliteq(m, len(tgt), ([cycle[p] for p in cls] for cls in part),
                       src, tgt)
            for part in memo[whole]]


# The relational theories whose arrows are exactly the candidates their
# staged route accepts, with the graphs of the candidates from m sources to
# n targets.  A diamond theory's arrows are maps from sources to targets,
# and s_chi's are the converses of injections of targets into sources.
_CANDIDATES = {
    "s4_dia": lambda m, n: map(
        enumerate, itertools.combinations_with_replacement(range(n), m)),
    "t_dia": lambda m, n: map(enumerate, itertools.combinations(range(n), m)),
    "k4_dia": lambda m, n: map(enumerate, (
        v for v in itertools.combinations_with_replacement(range(n), m)
        if len(set(v)) == n)),
    "s4_dia_chi": lambda m, n: map(
        enumerate, itertools.product(range(n), repeat=m)),
    "s_chi": lambda m, n: (zip(chosen, range(n))
                           for chosen in itertools.permutations(range(m), n)),
}

# Theories whose realizability test is a proven exact characterization of
# the functor's image: those :func:`_exact_arrows` answers.
_EXACT_REALIZABLE = frozenset({"s5", *_CANDIDATES, *_PARTNERS})


def _exact_arrows(theory: Theory, src: str, tgt: str
                  ) -> Optional[list[tuple[dg.Diagram, list[Factor]]]]:
    """The arrows of a theory whose image has an exact characterization,
    each with its unchecked staged factor list; None for the others.  A
    theory with a partner carries the partner's arrows back.  Every
    relational candidate runs the staged route once, and it is an arrow
    exactly when the route succeeds."""
    if theory.id in _PARTNERS:
        partner, words, diagram, factors, _ = _PARTNERS[theory.id]
        inner = _exact_arrows(get_theory(partner), *words(src, tgt))
        return [(diagram(d), factors(found)) for d, found in inner]
    if theory.id == "s5":
        return [(d, _synth_s5(d)) for d in _enum_spliteq(src, tgt)]
    if theory.id not in _CANDIDATES:
        return None
    m, n = len(src), len(tgt)
    out = []
    for pairs in _CANDIDATES[theory.id](m, n):
        cand = dg.rel(m, n, pairs, src, tgt)
        try:
            out.append((cand, _synth_staged(theory, cand)))
        except SynthesisError:
            pass
    return out


def enum_hom(q: HomQuery) -> HomResult:
    """Enumerate Hom(src, tgt): exactly for structurally-characterized
    theories, by bounded witness search otherwise.  Every exact arrow's
    factor list is checked once in the theory asked.  For the sharp
    quotients the found arrows are identified under the conjugated functor;
    the preorder quotients have no diagram functor and are rejected.
    """
    theory = get_theory(q.theory)
    if theory.quotient == "triv":
        raise TermError(
            f"{theory.id} is a preorder; hom-sets have no diagram enumeration")
    result = HomResult(q)
    arrows = _exact_arrows(theory, q.src, q.tgt)
    if arrows is None:
        result.complete = False
        _bounded_search(theory, q, result)
    else:
        for d, factors in arrows:
            result.diagrams.append(d)
            result.witnesses[d.key()] = _witness(theory, d, factors)
    result.diagrams.sort(key=lambda d: d.key())
    return result


# The moves of the bounded search, per base theory: for each word a search
# has visited, the theory's factors from it in the order of
# :func:`theories.applicable_factors`, each with its target word and its
# ``plain_frame(REL, STD)`` step.  An entry is built the first time any
# search visits its word, and holds every factor, whatever its target's
# length, so one entry serves every query; each search filters the targets
# by its own ``max_len``.  The table grows only with the words of at most
# ``max_len`` letters that searches have visited.
_MOVES: dict[Theory, dict[str, list[tuple[str, Factor, dg.Step]]]] = {}


def _bounded_search(theory: Theory, q: HomQuery, result: HomResult) -> None:
    """Breadth-first image search over (word, strand table) states, each
    reached by a path of at most ``witness_budget`` factors through words of
    at most ``max_len`` letters.

    Only relational theories come here: the split-equivalence theories are
    s5 and fives, and their hom-sets are enumerated exactly.  A state's table
    is the one :func:`diagram.fold` keeps, a bit mask of source strands per
    target strand, and an edge applies one factor's step (from
    :data:`_MOVES`) to a copy of its parent's table.  With the source fixed,
    the table determines the relation, so every (word, relation) state is
    visited once, and the first path to reach a relation on the target word
    is its witness.  Diagrams are built only for those arrows, from their
    tables, in the order of their keys under the base functor; the sharp
    quotients then identify arrows of equal image.

    The search first walks the word graph from the source for the budget's
    steps, and computes each word's distance to the target back over those
    edges; at level k it skips every edge whose new word cannot reach the
    target in the ``witness_budget - k - 1`` steps left.  (A path that fits
    in the steps left from a word the search reaches leaves only words the
    walk reached before its last step, so its edges were all walked.)  Call
    a state useful when its word can reach the target in the steps left.
    The skips change no arrow, no order and no witness:

    - the parent of a useful state's first visit has an edge to its word,
      so it is useful too, one level up;
    - so, level by level, each pruned frontier is the old frontier with the
      states that are not useful left out, in the same order, and the
      earliest (state, move) pair of the old search that reaches a useful
      state is still the earliest: every useful state is first visited by
      the same path;
    - every state on the target word is useful, at distance 0.
    """
    base = theory.base
    if base.target != REL:
        raise TermError(f"bounded search needs a relational theory, "
                        f"not {base.id}")
    slack = 2
    max_len = max(len(q.src), len(q.tgt)) + slack
    budget = q.witness_budget
    moves = _MOVES.setdefault(base, {})
    frame = plain_frame(REL, STD)
    # The word graph from the source, and its edges into each word.
    seen = {q.src}
    layer = [q.src]
    sources: dict[str, list[str]] = {}
    for _ in range(budget):
        grown_words = []
        for word in layer:
            out = moves.get(word)
            if out is None:
                factors = applicable_factors(base, word)
                out = moves[word] = list(zip([f.tgt for f in factors], factors,
                                             frame.steps(factors)))
            for new_word, _, _ in out:
                if len(new_word) > max_len:
                    continue
                sources.setdefault(new_word, []).append(word)
                if new_word not in seen:
                    seen.add(new_word)
                    grown_words.append(new_word)
        layer = grown_words
    # Each word's distance to the target; a word without one cannot reach
    # it within the budget, and no word longer than max_len has one.
    distance = {q.tgt: 0} if q.tgt in seen else {}
    layer = list(distance)
    while layer:
        grown_words = []
        for word in layer:
            for prev in sources.get(word, ()):
                if prev not in distance:
                    distance[prev] = distance[word] + 1
                    grown_words.append(prev)
        layer = grown_words
    start = tuple(1 << i for i in range(len(q.src)))
    states = {(q.src, start)}
    # A path is a linked list of factors, last factor first.
    frontier: list[tuple[str, tuple, Optional[tuple]]] = [(q.src, start, None)]
    found: dict[tuple, Optional[tuple]] = {}
    if q.src == q.tgt:
        found[start] = None
    for level in range(budget):
        left = budget - level - 1
        grown = []
        for word, table, path in frontier:
            for new_word, factor, step in moves[word]:
                # A word with no distance gets the budget: more than any
                # number of steps left.
                if distance.get(new_word, budget) > left:
                    continue
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
                continue  # identified by the quotient functor
        result.diagrams.append(diag)
        result.witnesses[diag.key()] = factors_to_term(q.src, factors)


# ---------------------------------------------------------------------------
# The mirror isomorphism


def mirror_term(term: ArrowTerm, source: str = "s5") -> ArrowTerm:
    """Transport a term across the word-reversal isomorphism between the two
    box/diamond-mixing theories (types reverse; interpretations mirror); the
    factors of the result are the :func:`terms.mirror_factor` images of the
    term's factors."""
    if source not in ("s5", "fives"):
        raise TermError("mirror_term source must be 's5' or 'fives'")
    theory = get_theory(source)

    # An operator applied above a part moves to the right end of every
    # index word below it, so each leaf takes its reversed prefix as a
    # context, and the applications themselves disappear.
    def leaf(t: ArrowTerm, prefix: str) -> ArrowTerm:
        ctx = prefix[::-1]
        if isinstance(t, Id):
            return Id(rev_word(t.word) + ctx)
        if not theory.admits(t.kind):
            raise TermError(f"generator {t.kind} is not in theory {source}")
        out: ArrowTerm = Gen(MIRROR_KIND[t.kind], ctx)
        for op in t.index:
            out = App(op, out)
        return out

    return map_term(term, leaf, lambda op, body: body)


# ---------------------------------------------------------------------------
# Random terms (used by the randomized checks)


def random_term(theory: "Theory | str", src: str, n_gens: int,
                rng: Random) -> ArrowTerm:
    """A uniformly random generator walk from ``src`` with n_gens factors."""
    theory = get_theory(theory)
    word = src
    factors: list[Factor] = []
    for _ in range(n_gens):
        options = applicable_factors(theory, word)
        if not options:
            break
        factor = rng.choice(options)
        factors.append(factor)
        word = factor.tgt
    return factors_to_term(src, factors)
