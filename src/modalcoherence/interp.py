"""Coherence functors: interpret arrow terms as finite-ordinal diagrams.

Every registered theory carries a default functor into its target category
(binary relations or split equivalences); the classic presentations of the
base system also admit the two one-sided functor variants, the
box/diamond-mixing theories admit a dual functor that exchanges the counit
and comultiplication shapes, and the sharp quotients use the base functor
conjugated by the collapse isomorphisms of :mod:`modalcoherence.quotient`.
Each functor is a :class:`Frame`, which folds one side of an arrow.

Equality of deductions is decided here by comparing diagrams, which the
coherence theorems make complete for the registered non-quotient theories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from . import diagram as dg
from .quotient import j_arrow_factors, j_inv_factors, sharp
from .schemas import build_side, get_schema, instantiate, open_sides
from .terms import (
    MIRROR_KIND,
    ArrowTerm,
    Factor,
    TermError,
    chain_target,
    factors_to_term,
    word_to_str,
)
from .theories import (
    GEN,
    REL,
    SHARP,
    TRIV,
    Theory,
    applicable_factors,
    check_admitted,
    get_theory,
    typed_factors,
)

STD = "std"
EPS = "eps"
DELTA = "delta"
DUAL = "dual"
SHARP_VARIANT = "sharp"

VARIANTS = (STD, EPS, DELTA, DUAL, SHARP_VARIANT)

# Theories admitting the one-sided functor variants.  On the mixed theories
# only one side is a functor (the added diagonal of the delta variant breaks
# the counit/unit mixing, and dually), so the eps variant stops at the
# counit-only mixed theory and the delta variant at the comultiplication-only
# one.
_EPS_OK = {"k", "t_box", "t_dia", "k4_box", "k4_dia", "t_boxdia"}
_DELTA_OK = {"k", "t_box", "t_dia", "k4_box", "k4_dia", "k4_boxdia"}
_DUAL_OK = {"s5", "fives"}


class VariantError(TermError):
    pass


def check_variant(theory: Theory, variant: str) -> None:
    if variant not in VARIANTS:
        raise VariantError(f"unknown functor variant {variant!r}")
    if theory.quotient == TRIV:
        raise VariantError(
            f"{theory.id} is a preorder quotient; it has no diagram functor")
    if variant not in admitted_variants(theory):
        raise VariantError(
            f"variant {variant!r} does not apply to theory {theory.id}")


def admitted_variants(theory: "Theory | str") -> list[str]:
    """The functor variants the theory admits, in the order of
    :data:`VARIANTS`.  A preorder quotient has no diagram functor; it lists
    only the standard variant, under which :func:`check_soundness` compares
    types alone."""
    theory = get_theory(theory)
    variants = [STD]
    if theory.id in _EPS_OK:
        variants.append(EPS)
    if theory.id in _DELTA_OK:
        variants.append(DELTA)
    if theory.id in _DUAL_OK:
        variants.append(DUAL)
    if theory.quotient == SHARP:
        variants.append(SHARP_VARIANT)
    return variants


# Per-factor clauses as data.  A generator kind maps to (s, t, links), the
# middle of a ``diagram.fold`` step: the generator spans s source and t
# target strands above the n strands of its index word, which pass straight
# through, and its links are written with offsets from n.
_CHI = (2, 2, ((0, 1), (1, 0)))
_REL_STD = {
    "eps_box": (1, 0, ()),
    "eps_dia": (0, 1, ()),
    "delta_bb": (1, 2, ((0, 0), (0, 1))),
    "delta_dd": (2, 1, ((0, 0), (1, 0))),
    "chi_bb": _CHI, "chi_dd": _CHI, "chi_db": _CHI, "chi_bd": _CHI,
}
_CAP = (1, 2, ((("s", 0), ("t", 0), ("t", 1)),))
_CUP = (2, 1, ((("s", 0), ("s", 1), ("t", 0)),))
_DUAL_CAP = (2, 3, ((("s", 0), ("t", 0)), (("t", 1),), (("s", 1), ("t", 2))))
_DUAL_CUP = (3, 2, ((("s", 0), ("t", 0)), (("s", 1),), (("s", 2), ("t", 1))))

# (target category, variant) -> generator kind -> clause.
_CLAUSES = {
    (REL, STD): _REL_STD,
    # The counit-only functor drops the duplication link; the
    # comultiplication-only functor adds a diagonal to the counit.
    (REL, EPS): {**_REL_STD, "delta_bb": (1, 2, ((0, 0),)),
                 "delta_dd": (2, 1, ((0, 0),))},
    (REL, DELTA): {**_REL_STD, "eps_box": (1, 0, ((0, -1),)),
                   "eps_dia": (0, 1, ((-1, 0),))},
    (GEN, STD): {
        "eps_box": (1, 0, ((("s", 0),),)), "eps_dia": (0, 1, ((("t", 0),),)),
        "delta_bb": _CAP, "delta_bd": _CAP, "sigma_bb": _CAP, "sigma_db": _CAP,
        "delta_dd": _CUP, "delta_db": _CUP, "sigma_dd": _CUP, "sigma_bd": _CUP,
    },
    # Counit and comultiplication exchange shapes; objects gain one strand.
    (GEN, DUAL): {"eps_box": _CUP, "eps_dia": _CAP,
                  "delta_bb": _DUAL_CAP, "delta_bd": _DUAL_CAP,
                  "delta_dd": _DUAL_CUP, "delta_db": _DUAL_CUP},
}


@dataclass(frozen=True)
class Frame:
    """How one coherence functor folds one side of an arrow into a strand
    table of :mod:`diagram`.

    A side from ``src`` to ``tgt`` is the fold of :meth:`opening`, one
    :meth:`steps` entry per factor, and :meth:`closing`, starting on
    :meth:`width` strands.  The frame holds the functor as data:

    - ``kind``: the target category, "rel" or "gen";
    - ``clauses``: generator kind to clause, the middle of a step, which the
      factor's index word and prefix put in place;
    - ``mirror``: the dual functor of fives is the mirror image of the dual
      functor of s5, so each factor steps as its mirror image would, with
      the strands of its prefix and index exchanged, and the diagram is
      mirrored at the end;
    - ``collapse``: the sharp functor conjugates with the collapse
      isomorphisms, so it starts on the strands of the collapsed source,
      opens with the factors of ``j_inv(src)`` and closes with those of
      ``j_arrow(tgt)``.

    The dual functor has one strand more than the word has letters, and its
    diagrams carry no word labels.
    """

    kind: str
    variant: str
    clauses: dict
    mirror: bool = False
    collapse: bool = False

    def width(self, src: str) -> int:
        if self.collapse:
            return len(sharp(src))
        return len(src) + (self.variant == DUAL)

    def labels(self, src: str, tgt: str) -> tuple[Optional[str], Optional[str]]:
        """The words the side's diagram carries on its boundaries."""
        if self.variant == DUAL:
            return None, None
        if self.collapse:
            return sharp(src), sharp(tgt)
        return src, tgt

    def steps(self, factors: Iterable[Factor]) -> list[dg.Step]:
        """Each factor as one step: its clause, above the strands of its
        index word and below those of its prefix."""
        clauses = self.clauses
        try:
            if self.mirror:
                return [(len(f.prefix), *clauses[f.kind], len(f.index))
                        for f in factors]
            return [(len(f.index), *clauses[f.kind], len(f.prefix))
                    for f in factors]
        except KeyError as exc:
            raise VariantError(f"no {self.variant} clause for generator "
                               f"{exc.args[0]}") from None

    def opening(self, src: str) -> list[dg.Step]:
        return self.steps(j_inv_factors(src)) if self.collapse else []

    def closing(self, tgt: str) -> list[dg.Step]:
        return self.steps(j_arrow_factors(tgt)) if self.collapse else []

    def image(self, src: str, tgt: str, factors: list[Factor]) -> dg.Diagram:
        """The diagram of the factors, which run from ``src`` to ``tgt``."""
        steps = self.steps(factors)
        if self.collapse:
            steps = self.opening(src) + steps + self.closing(tgt)
        image = dg.fold(self.kind, self.width(src), steps,
                        *self.labels(src, tgt))
        return dg.mirror(image) if self.mirror else image

    def key(self, src: str, tgt: str, factors: Iterable[Factor]) -> tuple:
        """The :func:`diagram.fold_key` of the factors, which run from
        ``src`` to ``tgt``, with the range and label checks of
        :meth:`image`; no diagram is built.  Two keys of this frame on one
        source are equal exactly when the images' keys are.  The final
        mirror image is left out, so such a key is not the key of a
        diagram built another way."""
        width = self.width(src)
        table, parent = dg.fold_start(self.kind, width)
        dg.fold_steps(table, parent, self.opening(src) + self.steps(factors)
                      + self.closing(tgt))
        return dg.fold_key(width, table, parent, self.labels(src, tgt)[1])


# The frames that hold a clause table as it is, made once; a clause changed
# in its table shows in them.
_PLAIN_FRAMES = {key: Frame(*key, clauses) for key, clauses in _CLAUSES.items()}
_SHARP_FRAMES = {target: Frame(target, SHARP_VARIANT, _CLAUSES[target, STD],
                               collapse=True) for target in (REL, GEN)}


def plain_frame(target: str, variant: str) -> Frame:
    """The frame of the functor into ``target`` given by the clauses of
    ``variant`` alone."""
    return _PLAIN_FRAMES[target, variant]


def side_frame(theory: Theory, variant: str) -> Frame:
    """The frame of the theory's functor ``variant``, which must be one it
    admits (:func:`check_variant`)."""
    if variant == SHARP_VARIANT or (variant == STD and theory.quotient == SHARP):
        return _SHARP_FRAMES[theory.base.target]
    if variant == DUAL and theory.id == "fives":
        dual = _CLAUSES[GEN, DUAL]
        return Frame(GEN, DUAL, {kind: dual[MIRROR_KIND[kind]]
                                 for kind in theory.generators}, mirror=True)
    return plain_frame(theory.target, variant)


def fold(target: str, variant: str, src: str,
         factors: list[Factor]) -> dg.Diagram:
    """Composite of the factors' images under the clauses of ``variant``,
    in application order; the identity on ``src`` when there are no
    factors.  It carries ``src`` and the last factor's target word, except
    under the dual functor."""
    return plain_frame(target, variant).image(
        src, factors[-1].tgt if factors else src, factors)


def _image(theory: Theory, variant: str, src: str, tgt: str,
           factors: list[Factor]) -> dg.Diagram:
    return side_frame(theory, variant).image(src, tgt, factors)


def interp(theory: "Theory | str", term: ArrowTerm, variant: str = STD) -> dg.Diagram:
    """Image of a well-typed term under the requested coherence functor: the
    composite of its factors' images, folded along one walk of the term.

    The diagram carries the term's source and target words as labels, except
    under the dual functor, whose boundary ordinals exceed the word lengths.
    """
    theory = get_theory(theory)
    check_variant(theory, variant)
    return _image(theory, variant, *typed_factors(term, theory))


EQUAL = "equal"
NOT_EQUAL = "not_equal"
TYPE_MISMATCH = "type_mismatch"


@dataclass(frozen=True)
class EqualityResult:
    verdict: str
    left_type: tuple[str, str]
    right_type: tuple[str, str]
    left_diagram: Optional[dg.Diagram] = None
    right_diagram: Optional[dg.Diagram] = None

    def __bool__(self) -> bool:
        return self.verdict == EQUAL

    def describe(self) -> str:
        if self.verdict == TYPE_MISMATCH:
            lt, rt = self.left_type, self.right_type
            return (f"type mismatch: {word_to_str(lt[0])} |- {word_to_str(lt[1])}"
                    f" vs {word_to_str(rt[0])} |- {word_to_str(rt[1])}")
        return self.verdict.replace("_", " ")


@dataclass(frozen=True)
class SoundnessFailure:
    schema_id: str
    word: str
    inner: Optional[str]
    lhs: str
    rhs: str


@dataclass(frozen=True)
class SoundnessReport:
    theory_id: str
    variant: str
    instances: int
    failures: tuple[SoundnessFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        head = (f"{self.theory_id}/{self.variant}: {self.instances} instances, "
                f"{len(self.failures)} failures")
        lines = [head]
        for fail in self.failures:
            lines.append(f"  {fail.schema_id} @ A={word_to_str(fail.word)}"
                         + (f" f={fail.inner}" if fail.inner else "")
                         + f": {fail.lhs}  !=  {fail.rhs}")
        return "\n".join(lines)


def _all_words(max_len: int) -> list[str]:
    words = [""]
    level = [""]
    for _ in range(max_len):
        level = [w + c for w in level for c in "bd"]
        words.extend(level)
    return words


def check_soundness(theory: "Theory | str", variant: str = STD,
                    idx_bound: int = 3, f_bound: int = 2) -> SoundnessReport:
    """Verify every axiom-schema instance of the theory under the functor.

    Index metavariables range over words of length <= idx_bound; the inner
    arrow of a naturality schema ranges over all theory factor lists with at
    most f_bound generators whose source word has length <= idx_bound.  Each
    side of an instance is typed and checked against the theory's generator
    and index discipline, and the two sides must agree on type (source and
    target word) and on image under the functor.  For the preorder
    quotients the check degenerates to equality of types, which is what
    their decision procedure relies on.

    The instances of one schema at one index word form a tree, walked
    breadth-first: the inner arrows grow one factor at a time, in the order
    of ``theories.enumerate_factor_terms``, and a schema without an arrow
    is the root alone.  A node holds, for each side with the arrow, its
    running word and the strand table of the functor's :class:`Frame` up
    to the end of the inner arrow.  A move table, made for this call
    alone, lists each node's moves once per inner word and per running
    word and arrow prefix of each side: every factor applicable to the
    inner word, and for each side the running word after that factor
    under the prefix and its step.  Each factor is checked when its entry
    is built, as ``terms.chain_target`` and ``theories.check_admitted``
    check it, so nodes that share an entry do not check it again.  A child
    copies its parent's tables and applies the stored steps.  The nodes at
    depth ``f_bound``, most of the tree, are leaves, and no node is made
    for them: each leaf instance copies each side's table of its parent
    once and folds the move's step, the factors after the arrow and the
    closing steps in one pass.  The leaves are checked after every node of
    the level above, so failures stay in breadth-first order.
    An instance compares source, target and :func:`diagram.fold_key`
    across the sides.  The frame's final mirror image is left out: the
    sides have equal types wherever their keys are compared, and
    mirroring both relabels both alike.  A failure is rebuilt with
    ``schemas.instantiate`` to be printed.
    """
    theory = get_theory(theory)
    for name, bound in (("idx_bound", idx_bound), ("f_bound", f_bound)):
        if bound < 0:
            raise ValueError(f"{name} must be non-negative, got {bound}")
    # A preorder quotient admits the standard variant alone, under which
    # types alone are compared; check_variant refuses every other.
    if theory.quotient != TRIV or variant != STD:
        check_variant(theory, variant)
    frame = None if theory.quotient == TRIV else side_frame(theory, variant)
    words = _all_words(idx_bound)
    failures: list[SoundnessFailure] = []
    instances = 0
    # (inner word, then per side its arrow's prefix and running word, or
    # None without the arrow) -> per factor g from the inner word: g, and
    # per side the running word after g under the prefix and g's step
    # there (None without the arrow).
    moves: dict[tuple, list[tuple[Factor, list]]] = {}

    def checked(word: str, factors: list[Factor]) -> str:
        # The running word after the factors.
        if factors:
            word = chain_target(word, factors)
            check_admitted(theory, factors)
        return word

    def node_moves(inner: str, prefixes: list, sides: list) -> list:
        # The node's entry in the move table, built on first use.
        key = (inner, *[None if side is None else (prefix, side[0])
                        for prefix, side in zip(prefixes, sides)])
        entry = moves.get(key)
        if entry is None:
            entry = moves[key] = []
            for g in applicable_factors(theory, inner):
                row = []
                for prefix, side in zip(prefixes, sides):
                    if side is None:
                        row.append(None)
                        continue
                    factor = Factor(prefix + g.prefix, g.kind, g.index)
                    row.append((checked(side[0], [factor]), None
                                if frame is None else frame.steps([factor])[0]))
                entry.append((g, row))
        return entry

    def stepped(side: tuple, move: tuple) -> tuple:
        # A copy of the side (running word, table, parent) after the move
        # (running word, step).
        running, step = move
        if frame is None:
            return running, None, None
        _, table, parent = side
        table = list(table)
        parent = None if parent is None else list(parent)
        dg.fold_steps(table, parent, (step,))
        return running, table, parent

    def ending(src: str, running: str, factors: list[Factor]) -> tuple:
        # A side's target, its steps after the inner arrow and the label
        # of its target strands.
        tgt = checked(running, factors)
        if frame is None:
            return tgt, (), None
        return (tgt, frame.steps(factors) + frame.closing(tgt),
                frame.labels(src, tgt)[1])

    def summary(src: str, width: int, table: list, parent: Optional[list],
                steps: list, tail: tuple) -> tuple:
        # What must agree across the sides of an instance: the side's table
        # after the steps and the tail's steps.
        tgt, tail_steps, label = tail
        if frame is None:
            return src, tgt
        steps = steps + tail_steps
        if steps:
            table = list(table)
            parent = None if parent is None else list(parent)
            dg.fold_steps(table, parent, steps)
        return src, tgt, dg.fold_key(width, table, parent, label)

    for schema_id in theory.equations:
        schema = get_schema(schema_id)
        depths = f_bound if schema.naturality else 0
        # (side, running word at the end of the inner arrow) -> ending.
        tails: dict[tuple[int, str], tuple] = {}

        def failure(word: str, path: Optional[tuple]) -> SoundnessFailure:
            # The instance whose inner arrow is the path, a linked list of
            # its factors, last factor first.
            factors, link = [], path
            while link is not None:
                factor, link = link
                factors.append(factor)
            factors.reverse()
            arrow = (word, factors) if schema.naturality else None
            lhs, rhs = instantiate(schema, word, arrow)
            return SoundnessFailure(
                schema.id, word,
                str(factors_to_term(*arrow)) if arrow else None,
                str(factors_to_term(*lhs)), str(factors_to_term(*rhs)))

        for word in words:
            opened = open_sides(schema, word)
            prefixes = [prefix for _, _, prefix, _ in opened]
            root, whole, widths = [], [], []
            for src, before, prefix, _ in opened:
                side = checked(src, before), None, None
                width = None
                if frame is not None:
                    width = frame.width(src)
                    table, parent = dg.fold_start(frame.kind, width)
                    dg.fold_steps(table, parent,
                                  frame.opening(src) + frame.steps(before))
                    side = side[0], table, parent
                widths.append(width)
                # A side without the arrow is the same in every instance.
                root.append(side if prefix is not None else None)
                whole.append(None if prefix is not None else summary(
                    src, width, side[1], side[2], [],
                    ending(src, side[0], [])))

            def summaries(inner: str, sides: list, row: Optional[list]):
                # Both sides' summaries at the node (inner word, sides), or
                # at its leaf by the move row.
                out = whole[:]
                for k, (src, _, prefix, after) in enumerate(opened):
                    if prefix is None:
                        continue
                    running, table, parent = sides[k]
                    steps = []
                    if row is not None:
                        running, step = row[k]
                        steps = [step]
                    tail = tails.get((k, running))
                    if tail is None:
                        tail = tails[k, running] = ending(
                            src, running, build_side(after, {"B": inner}))
                    out[k] = summary(src, widths[k], table, parent, steps, tail)
                return out

            # A node is (inner arrow's target, path, sides).
            level = [(word, None, root)]
            for depth in range(depths + 1):
                expanded = []
                for inner, path, sides in level:
                    instances += 1
                    lhs, rhs = summaries(inner, sides, None)
                    if lhs != rhs:
                        failures.append(failure(word, path))
                    if depth < depths:
                        expanded.append(
                            (path, sides, node_moves(inner, prefixes, sides)))
                if depth + 1 < depths:
                    level = [(g.tgt, (g, path), [
                        None if move is None else stepped(side, move)
                        for side, move in zip(sides, row)])
                        for path, sides, entry in expanded for g, row in entry]
                    continue
                # The leaves, checked from their parents' tables.
                for path, sides, entry in expanded:
                    for g, row in entry:
                        instances += 1
                        lhs, rhs = summaries(g.tgt, sides, row)
                        if lhs != rhs:
                            failures.append(failure(word, (g, path)))
                break
    return SoundnessReport(theory.id, variant, instances, tuple(failures))


def decide_equal(theory: "Theory | str", f: ArrowTerm, g: ArrowTerm) -> EqualityResult:
    """Decide equality of two deductions in a theory.

    Non-quotient theories and the sharp quotients compare images under their
    (faithful) functor; the preorder quotients identify all terms of equal
    type.
    """
    theory = get_theory(theory)
    fsrc, ftgt, ffactors = typed_factors(f, theory)
    gsrc, gtgt, gfactors = typed_factors(g, theory)
    ftype, gtype = (fsrc, ftgt), (gsrc, gtgt)
    if ftype != gtype:
        return EqualityResult(TYPE_MISMATCH, ftype, gtype)
    if theory.quotient == TRIV:
        return EqualityResult(EQUAL, ftype, gtype)
    df = _image(theory, STD, fsrc, ftgt, ffactors)
    dgm = _image(theory, STD, gsrc, gtgt, gfactors)
    verdict = EQUAL if df.same_as(dgm) else NOT_EQUAL
    return EqualityResult(verdict, ftype, gtype, df, dgm)
