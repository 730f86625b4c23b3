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
from .interp import STD, _image, fold, interp, plain_frame
from .terms import (
    ArrowTerm,
    App,
    BOX,
    DIA,
    MIRROR_KIND,
    Factor,
    GENERATORS,
    Gen,
    Id,
    TermError,
    chain_target,
    dual_factors,
    dualize,
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


def _dualized(d: dg.Diagram) -> dg.Diagram:
    """Converse with both boundary words letter-swapped; this matches the
    action of term dualization on interpretations."""
    flipped = dg.converse(d)
    def sw(w):
        return swap_word(w) if w is not None else None
    if isinstance(flipped, dg.RelDiagram):
        return dg.RelDiagram(flipped.src_len, flipped.tgt_len, flipped.pairs,
                             sw(flipped.src_word), sw(flipped.tgt_word))
    return dg.SplitEq(flipped.src_len, flipped.tgt_len, flipped.classes,
                      sw(flipped.src_word), sw(flipped.tgt_word))


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


def _s5_shapes_ok(d: dg.SplitEq) -> bool:
    _require_words(d)
    return all(class_shape(d, cls) is not None for cls in d.classes)


def _synth_reduce_stage(d: dg.SplitEq) -> list[Factor]:
    """Kill/cup synthesis for diagrams every class of which has at most one
    target element, targets appearing in class order."""
    src, tgt = _require_words(d)
    class_of: dict[int, int] = {}
    target_of: dict[int, Optional[int]] = {}
    for num, cls in enumerate(d.classes):
        targets = [j for side, j in cls if side == "t"]
        if len(targets) > 1:
            raise SynthesisError("reduce stage needs at most one target per class")
        target_of[num] = targets[0] if targets else None
        for side, i in cls:
            if side == "s":
                class_of[i] = num
    builder = _Builder(get_theory("s5"), src)
    strands = [class_of[i] for i in range(d.src_len)]
    remaining = {num: strands.count(num) for num in set(strands)}
    while True:
        cup_at = [p for p in range(len(strands) - 1)
                  if strands[p] == strands[p + 1]
                  and letter_at(builder.word, p + 1) == DIA]
        kill_at = [p for p in range(len(strands))
                   if target_of[strands[p]] is None and remaining[strands[p]] == 1
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
    produced = [target_of[num] for num in strands]
    if produced != list(range(d.tgt_len)):
        raise SynthesisError("class strands do not line up with the middle word")
    if builder.word != tgt:
        raise SynthesisError(f"middle word mismatch: {builder.word!r} != {tgt!r}")
    return builder.factors


def _synth_s5(d: dg.SplitEq) -> list[Factor]:
    """Two-stage synthesis: a kill/cup stage (counit-box and diamond cups)
    followed by a birth/cap stage (counit-diamond and box caps)."""
    src, tgt = _require_words(d)
    if not dg.is_noncrossing(d):
        raise SynthesisError("diagram is not planar")
    if not _s5_shapes_ok(d):
        raise SynthesisError("a class violates the head-shape discipline")
    both = []
    for cls in d.classes:
        sources = sorted(i for side, i in cls if side == "s")
        targets = sorted(j for side, j in cls if side == "t")
        if sources and targets:
            both.append((sources[0], cls))
    both.sort()
    mid_word = ""
    for _, cls in reversed(both):
        mid_word += class_shape(d, cls)
    # Stage one: reduce the source word onto the middle word.
    stage1_classes = []
    for strand, (base, cls) in enumerate(both):
        members = [("s", i) for side, i in cls if side == "s"]
        members.append(("t", strand))
        stage1_classes.append(members)
    for cls in d.classes:
        if not any(side == "t" for side, _ in cls):
            stage1_classes.append(list(cls))
    d1 = dg.spliteq(d.src_len, len(both), stage1_classes, src, mid_word)
    factors = _synth_reduce_stage(d1)
    # Stage two: grow the middle word out to the target, built as the dual of
    # a reduce stage.
    stage2_classes = []
    for strand, (base, cls) in enumerate(both):
        members = [("t", j) for side, j in cls if side == "t"]
        members.append(("s", strand))
        stage2_classes.append(members)
    for cls in d.classes:
        if not any(side == "s" for side, _ in cls):
            stage2_classes.append(list(cls))
    d2 = dg.spliteq(len(both), d.tgt_len, stage2_classes, mid_word, tgt)
    return factors + dual_factors(_synth_reduce_stage(_dualized(d2)))


_SYNTH_BY_DUAL = {"t_box": "t_dia", "k4_box": "k4_dia", "s4_box": "s4_dia"}


def synthesize(theory: "Theory | str", d: dg.Diagram) -> ArrowTerm:
    """Produce the staged-normal-form term whose interpretation is ``d``.

    Raises SynthesisError when the diagram is not in the functor's image (or
    the theory has no synthesis procedure).  Every route yields a factor
    list: a box theory's is the dual of the list synthesized in its diamond
    partner, and fives' is the mirror image of the list synthesized in s5.
    The list is checked once, as :func:`interp` checks a term (the chain of
    words, the theory's generators and index constraint), and its image must
    equal ``d``.
    """
    theory = get_theory(theory)
    src, tgt = _require_words(d)
    if isinstance(d, dg.SplitEq) != (theory.target == GEN):
        raise SynthesisError(
            f"theory {theory.id} has no {type(d).__name__} diagrams")
    if theory.id in _SYNTH_BY_DUAL:
        dual = _dualized(d)
        staged = _synth_staged(get_theory(_SYNTH_BY_DUAL[theory.id]), dual)
        factors = dual_factors(staged)
    elif theory.id == "fives":
        factors = [mirror_factor(f) for f in _synth_s5(dg.mirror(d))]
    elif theory.id == "s5":
        factors = _synth_s5(d)
    elif theory.id in SYNTHESIS_THEORIES:
        factors = _synth_staged(theory, d)
    else:
        raise SynthesisError(f"no synthesis procedure for theory {theory.id}")
    factor_tgt = chain_target(src, factors)
    check_admitted(theory, factors)
    if not _image(theory, STD, src, factor_tgt, factors).same_as(d):
        raise SynthesisError("synthesis produced a term with a different image")
    if theory.id in _SYNTH_BY_DUAL:
        # The dual of the staged term keeps its composites nested left.
        return dualize(factors_to_term(dual.src_word, staged))
    return factors_to_term(src, factors)


# ---------------------------------------------------------------------------
# Realizability


# Theories whose realizability test is a proven exact characterization of
# the functor's image.
_EXACT_REALIZABLE = frozenset({
    "t_box", "t_dia", "k4_box", "k4_dia", "s4_box", "s4_dia",
    "s_chi", "s4_dia_chi", "s5", "fives",
})


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
    if theory.id in ("s5", "fives"):
        if not isinstance(d, dg.SplitEq):
            return False
        dd = d if theory.id == "s5" else dg.mirror(d)
        return bool(dg.is_noncrossing(dd) and _s5_shapes_ok(dd))
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
            for nxt in range(last + 1, hi):
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


def _enum_rel_structural(theory: Theory, src: str, tgt: str
                         ) -> Optional[list[tuple[dg.RelDiagram, ArrowTerm]]]:
    """The arrows of a relational theory whose image has an exact structural
    characterization, each with its witness term; None for the others.
    Every candidate is synthesized once, and it is an arrow exactly when
    synthesis succeeds."""
    m, n = len(src), len(tgt)
    if theory.id in _SYNTH_BY_DUAL:
        dual = get_theory(_SYNTH_BY_DUAL[theory.id])
        inner = _enum_rel_structural(dual, swap_word(tgt), swap_word(src))
        return [(_dualized(found), dualize(term)) for found, term in inner]
    if theory.id in ("s4_dia", "t_dia", "k4_dia", "s4_dia_chi"):
        if theory.id == "s4_dia":
            value_iter = itertools.combinations_with_replacement(range(n), m)
        elif theory.id == "t_dia":
            value_iter = itertools.combinations(range(n), m)
        elif theory.id == "k4_dia":
            value_iter = (v for v in
                          itertools.combinations_with_replacement(range(n), m)
                          if len(set(v)) == n)
        else:
            value_iter = itertools.product(range(n), repeat=m)
        candidates = (dg.rel(m, n, ((i, values[i]) for i in range(m)), src, tgt)
                      for values in value_iter)
    elif theory.id == "s_chi":
        candidates = (dg.rel(m, n, ((chosen[j], j) for j in range(n)), src, tgt)
                      for chosen in itertools.permutations(range(m), n))
    else:
        return None
    out = []
    for cand in candidates:
        try:
            out.append((cand, synthesize(theory, cand)))
        except SynthesisError:
            pass
    return out


def enum_hom(q: HomQuery) -> HomResult:
    """Enumerate Hom(src, tgt): exactly for structurally-characterized
    theories, by bounded witness search otherwise.  For the sharp quotients
    the found arrows are identified under the conjugated functor; the
    preorder quotients have no diagram functor and are rejected.
    """
    theory = get_theory(q.theory)
    if theory.quotient == "triv":
        raise TermError(
            f"{theory.id} is a preorder; hom-sets have no diagram enumeration")
    result = HomResult(q)
    arrows = None
    if theory.quotient is None and theory.target == "gen":
        if theory.id == "fives":  # the mirror images of s5's arrows
            found = [dg.mirror(d) for d in
                     _enum_spliteq(rev_word(q.src), rev_word(q.tgt))]
        else:
            found = _enum_spliteq(q.src, q.tgt)
        arrows = [(d, synthesize(theory, d)) for d in found]
    elif theory.quotient is None and theory.target == "rel":
        arrows = _enum_rel_structural(theory, q.src, q.tgt)
    if arrows is None:
        result.complete = False
        _bounded_search(theory, q, result)
    else:
        for d, term in arrows:
            result.diagrams.append(d)
            result.witnesses[d.key()] = term
    result.diagrams.sort(key=lambda d: d.key())
    return result


def _bounded_search(theory: Theory, q: HomQuery, result: HomResult) -> None:
    """Breadth-first image search over (word, strand table) states, each
    reached by a path of at most ``witness_budget`` factors.

    Only relational theories come here: the split-equivalence theories are
    s5 and fives, and their hom-sets are enumerated exactly.  A state's table
    is the one :func:`diagram.fold` keeps, a bit mask of source strands per
    target strand, and an edge applies one factor's step to a copy of its
    parent's table.  With the source fixed, the table determines the
    relation, so every (word, relation) state is visited once, and the first
    path to reach a relation on the target word is its witness.  Diagrams
    are built only for those arrows, in the order of their keys under the
    base functor; the sharp quotients then identify arrows of equal image.
    """
    base = theory.base
    if base.target != REL:
        raise TermError(f"bounded search needs a relational theory, "
                        f"not {base.id}")
    slack = 2
    max_len = max(len(q.src), len(q.tgt)) + slack
    frame = plain_frame(REL, STD)
    moves: dict[str, list[tuple[str, Factor, dg.Step]]] = {}
    start = tuple(1 << i for i in range(len(q.src)))
    states = {(q.src, start)}
    # A path is a linked list of factors, last factor first.
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
                steps = frame.steps(factors)
                moves[word] = [(f.tgt, f, step)
                               for f, step in zip(factors, steps)]
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
    for path in found.values():
        factors: list[Factor] = []
        while path is not None:
            factor, path = path
            factors.append(factor)
        factors.reverse()
        arrows.append((fold(REL, STD, q.src, factors),
                       factors_to_term(q.src, factors)))
    arrows.sort(key=lambda arrow: arrow[0].key())
    for diag, term in arrows:
        if theory.quotient is not None:
            diag = interp(theory, term)
            if any(diag.same_as(seen) for seen in result.diagrams):
                continue  # identified by the quotient functor
        result.diagrams.append(diag)
        result.witnesses[diag.key()] = term


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
