"""Finite-ordinal diagrams: binary relations and split equivalences.

Both carriers share the same boundary convention: an arrow from ordinal n to
ordinal m has source elements 0..n-1 and target elements 0..m-1, drawn with
indices descending left to right (position 0 rightmost), sources on top.
Diagrams may carry optional modality words labelling the two boundaries.

A split equivalence is a partition of the disjoint union of the source and
target ordinals.  Composition unions the two partitions over the shared
middle ordinal, closes transitively, and deletes the middle elements;
classes that end up entirely in the middle disappear.

Composition of either carrier is one algorithm, :func:`fold`, over a table
of strands; composing two diagrams and interpreting a chain of factors are
both folds of steps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .terms import TermError, word_to_str

# Partition elements are tagged pairs ("s", i) / ("t", j).
Elem = tuple[str, int]


class DiagramError(TermError):
    pass


def _check_labels(length: int, word: Optional[str], side: str) -> None:
    if word is not None and len(word) != length:
        raise DiagramError(
            f"{side} word {word_to_str(word)!r} has length {len(word)}, "
            f"expected {length}")


@dataclass(frozen=True)
class RelDiagram:
    src_len: int
    tgt_len: int
    pairs: frozenset[tuple[int, int]]
    src_word: Optional[str] = None
    tgt_word: Optional[str] = None

    def __post_init__(self):
        for i, j in self.pairs:
            if not (0 <= i < self.src_len and 0 <= j < self.tgt_len):
                raise DiagramError(f"pair ({i},{j}) out of range "
                                   f"{self.src_len}x{self.tgt_len}")
        _check_labels(self.src_len, self.src_word, "source")
        _check_labels(self.tgt_len, self.tgt_word, "target")

    def key(self) -> tuple:
        """Structural identity ignoring the optional word labels, sorted
        once, on the first call."""
        try:
            return self._key
        except AttributeError:
            key = (self.src_len, self.tgt_len, tuple(sorted(self.pairs)))
            object.__setattr__(self, "_key", key)
            return key

    def same_as(self, other: "RelDiagram") -> bool:
        return self.key() == other.key()


def rel(src_len: int, tgt_len: int, pairs: Iterable[tuple[int, int]],
        src_word: Optional[str] = None, tgt_word: Optional[str] = None) -> RelDiagram:
    return RelDiagram(src_len, tgt_len, frozenset(pairs), src_word, tgt_word)


def rel_identity(n: int, word: Optional[str] = None) -> RelDiagram:
    return rel(n, n, ((i, i) for i in range(n)), word, word)


@dataclass(frozen=True)
class SplitEq:
    src_len: int
    tgt_len: int
    classes: tuple[tuple[Elem, ...], ...]
    src_word: Optional[str] = None
    tgt_word: Optional[str] = None

    def __post_init__(self):
        seen: set[Elem] = set()
        for cls in self.classes:
            if not cls:
                raise DiagramError("empty partition class")
            for elem in cls:
                if elem in seen:
                    raise DiagramError(f"element {elem} in two classes")
                seen.add(elem)
        expected = {("s", i) for i in range(self.src_len)}
        expected |= {("t", j) for j in range(self.tgt_len)}
        if seen != expected:
            raise DiagramError("partition does not cover the boundary "
                               f"{self.src_len}+{self.tgt_len}")
        _check_labels(self.src_len, self.src_word, "source")
        _check_labels(self.tgt_len, self.tgt_word, "target")

    def key(self) -> tuple:
        return (self.src_len, self.tgt_len, self.classes)

    def same_as(self, other: "SplitEq") -> bool:
        return self.key() == other.key()

    def class_of(self, elem: Elem) -> tuple[Elem, ...]:
        for cls in self.classes:
            if elem in cls:
                return cls
        raise DiagramError(f"no class contains {elem}")


Diagram = Union[RelDiagram, SplitEq]


def _elem_key(elem: Elem) -> tuple[int, int]:
    # Sources before targets, each side by index.
    return (0 if elem[0] == "s" else 1, elem[1])


def _canon(classes: Iterable[Iterable[Elem]]) -> tuple[tuple[Elem, ...], ...]:
    sorted_classes = [tuple(sorted(cls, key=_elem_key)) for cls in classes]
    sorted_classes.sort(key=lambda cls: _elem_key(cls[0]))
    return tuple(sorted_classes)


def spliteq(src_len: int, tgt_len: int, classes: Iterable[Iterable[Elem]],
            src_word: Optional[str] = None,
            tgt_word: Optional[str] = None) -> SplitEq:
    return SplitEq(src_len, tgt_len, _canon(classes), src_word, tgt_word)


def spliteq_identity(n: int, word: Optional[str] = None) -> SplitEq:
    return spliteq(n, n, ([("s", i), ("t", i)] for i in range(n)), word, word)


# ---------------------------------------------------------------------------
# Generic operations on both carriers


# A step (n, s, t, links, above) replaces s strands by t new ones, above n
# strands that pass straight through below it and below ``above`` strands
# that pass straight through above it.  Each link is written with offsets
# from n, so a negative offset names a strand below the step, which keeps its
# place.  A relational link is a (source, target) pair, and a link that falls
# below strand 0 is left out.  A split-equivalence link is a partition class
# of ("s", offset) and ("t", offset) elements.  So a diagram is the step
# (0, src_len, tgt_len, pairs or classes, 0).
Step = tuple[int, int, int, Iterable, int]


def fold_start(kind: str, width: int) -> tuple[list[int], Optional[list[int]]]:
    """The strand table of the identity on ``width`` strands, and for a
    split equivalence its union-find parents (None for a relation)."""
    if kind == "rel":
        return [1 << i for i in range(width)], None
    return list(range(width)), list(range(width))


def _middle_error(have: int, want: int) -> DiagramError:
    return DiagramError(f"cannot compose: middle lengths {have} != {want}")


def rel_step(table: list[int], step: Step) -> None:
    """Apply one step to a relational strand table in place; the step must
    start on as many strands as the table has entries.  The bounded hom
    search steps its tables with it as well."""
    n, s, t, links, above = step
    if n + s + above != len(table):
        raise _middle_error(len(table), n + s + above)
    new = [0] * t
    for i, k in links:
        if min(i, k) + n < 0:
            continue
        if k >= 0:
            new[k] |= table[n + i]
        else:
            table[n + k] |= table[n + i]
    table[n:n + s] = new


def _spliteq_step(table: list[int], parent: list[int], step: Step) -> None:
    """Apply one step to a split-equivalence strand table and its
    union-find parents in place; the step must start on as many strands as
    the table has entries."""
    n, s, t, links, above = step
    if n + s + above != len(table):
        raise _middle_error(len(table), n + s + above)
    new = [0] * t
    for cls in links:
        root = -1
        for side, k in cls:
            if side == "s":
                label = table[n + k]
                while parent[label] != label:
                    parent[label] = label = parent[parent[label]]
                if root < 0:
                    root = label
                elif label != root:
                    parent[label] = root
        if root < 0:
            root = len(parent)
            parent.append(root)
        for side, k in cls:
            if side == "t":
                new[k] = root
    table[n:n + s] = new


def fold_steps(table: list[int], parent: Optional[list[int]],
               steps: Iterable[Step]) -> None:
    """Apply the steps in turn to a strand table from :func:`fold_start`,
    in place."""
    if parent is None:
        for step in steps:
            rel_step(table, step)
    else:
        for step in steps:
            _spliteq_step(table, parent, step)


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def fold_key(width: int, table: list[int], parent: Optional[list[int]],
             tgt_word: Optional[str] = None) -> tuple:
    """A canonical form of a strand table from :func:`fold_start` on
    ``width`` strands: two tables on the same width have equal keys exactly
    when :func:`fold_finish` makes them into diagrams with equal keys.

    For a relation it is the tuple of target masks; for a split
    equivalence, the labels of the source strands and then of the target
    strands, renumbered in the order they are first seen.  It checks what
    the diagram's constructor would: every related source strand is in
    range, and ``tgt_word`` labels the target strands.

    The paths that only ask whether two images are equal compare keys and
    build no diagram: the soundness sweep (``interp.check_soundness``), the
    proof search's refute check and guard (``interp.Frame.key``), and the
    check of a synthesized or enumerated witness against its diagram
    (``decide._witness``).  The paths that return diagrams build them with
    :func:`fold_finish`: ``interp.interp``, ``interp.decide_equal``,
    ``decide.enum_hom`` and its bounded search.
    """
    _check_labels(len(table), tgt_word, "target")
    if parent is None:
        if table and max(table) >> width:
            raise DiagramError(f"source strand out of range {width}")
        return tuple(table)
    seen: dict[int, int] = {}
    out = []
    for label in [*range(width), *table]:
        while parent[label] != label:
            label = parent[label]
        out.append(seen.setdefault(label, len(seen)))
    return tuple(out)


def fold_finish(width: int, table: list[int], parent: Optional[list[int]],
                src_word: Optional[str] = None,
                tgt_word: Optional[str] = None) -> Diagram:
    """The diagram of a strand table from :func:`fold_start` on ``width``
    strands, built through the public constructor, so it is validated and
    put in canonical form."""
    if parent is None:
        pairs = []
        for k, mask in enumerate(table):
            while mask:
                low = mask & -mask
                pairs.append((low.bit_length() - 1, k))
                mask ^= low
        return rel(width, len(table), pairs, src_word, tgt_word)
    groups: dict[int, list[Elem]] = {}
    for i in range(width):
        groups.setdefault(_find(parent, i), []).append(("s", i))
    for j, label in enumerate(table):
        groups.setdefault(_find(parent, label), []).append(("t", j))
    return spliteq(width, len(table), groups.values(), src_word, tgt_word)


def fold(kind: str, width: int, steps: Iterable[Step],
         src_word: Optional[str] = None,
         tgt_word: Optional[str] = None) -> Diagram:
    """Composite of the steps, in application order, starting from the
    identity on ``width`` strands: a relation when ``kind`` is "rel", a split
    equivalence otherwise.

    The fold is :func:`fold_start`, :func:`fold_steps` and
    :func:`fold_finish` in sequence.  The steps are applied in turn to a
    strand table with one entry per current target strand; each step must
    start on as many strands as the steps before it end on.  For a
    relation, entry k is the set of source strands related to target strand
    k, as a bit mask.  For a split equivalence, source strand i carries
    label i and entry k the label of target strand k; labels are merged by
    a union-find over integers.  A class joins the labels of its source
    elements (or takes a fresh label when it has none) and hands the result
    to its target elements, so a class that ends up entirely in the middle
    keeps no boundary element and never shows in the final grouping.  One
    diagram is built at the end, so it is validated and put in canonical
    form once per fold.
    """
    table, parent = fold_start(kind, width)
    fold_steps(table, parent, steps)
    return fold_finish(width, table, parent, src_word, tgt_word)


def rel_compose(g: RelDiagram, f: RelDiagram) -> RelDiagram:
    """Relational composite of f followed by g."""
    return fold("rel", f.src_len, [(0, f.src_len, f.tgt_len, f.pairs, 0),
                                   (0, g.src_len, g.tgt_len, g.pairs, 0)],
                f.src_word, g.tgt_word)


def spliteq_compose(g: SplitEq, f: SplitEq) -> SplitEq:
    """Compose f then g: transitive closure over the middle, middle deleted."""
    return fold("gen", f.src_len, [(0, f.src_len, f.tgt_len, f.classes, 0),
                                   (0, g.src_len, g.tgt_len, g.classes, 0)],
                f.src_word, g.tgt_word)


def compose(g: Diagram, f: Diagram) -> Diagram:
    if isinstance(f, RelDiagram) and isinstance(g, RelDiagram):
        return rel_compose(g, f)
    if isinstance(f, SplitEq) and isinstance(g, SplitEq):
        return spliteq_compose(g, f)
    raise DiagramError("cannot compose a relation with a split equivalence")


def converse(d: Diagram) -> Diagram:
    """Swap source and target roles; involutive."""
    if isinstance(d, RelDiagram):
        return rel(d.tgt_len, d.src_len, ((j, i) for i, j in d.pairs),
                   d.tgt_word, d.src_word)
    flipped = (
        [("t", i) if side == "s" else ("s", i) for side, i in cls]
        for cls in d.classes
    )
    return spliteq(d.tgt_len, d.src_len, flipped, d.tgt_word, d.src_word)


def mirror(d: Diagram) -> Diagram:
    """Reflect left-to-right: index i becomes len-1-i on both boundaries,
    word labels reverse."""
    def rw(word: Optional[str]) -> Optional[str]:
        return word[::-1] if word is not None else None

    if isinstance(d, RelDiagram):
        return rel(d.src_len, d.tgt_len,
                   ((d.src_len - 1 - i, d.tgt_len - 1 - j) for i, j in d.pairs),
                   rw(d.src_word), rw(d.tgt_word))
    relabelled = (
        [(side, (d.src_len if side == "s" else d.tgt_len) - 1 - i)
         for side, i in cls]
        for cls in d.classes
    )
    return spliteq(d.src_len, d.tgt_len, relabelled, rw(d.src_word), rw(d.tgt_word))


def boundary_cycle(d: Diagram) -> list[Elem]:
    """Boundary elements in cyclic order for the planar layout: sources read
    left to right (descending index), then targets right to left (ascending
    index)."""
    cycle: list[Elem] = [("s", i) for i in range(d.src_len - 1, -1, -1)]
    cycle.extend(("t", j) for j in range(d.tgt_len))
    return cycle


def is_noncrossing(d: SplitEq) -> bool:
    """Planarity of the partition in the standard descending-index layout.

    Two classes cross exactly when they interleave (pattern x y x y) along
    the boundary cycle; interleaving is invariant under rotating the cycle,
    so one linear cut of the cycle is scanned.  Each class goes on a stack at
    its first member and comes off at its last; the classes do not cross
    exactly when every member after a class's first finds its class on top.
    """
    num_of = {elem: num for num, cls in enumerate(d.classes) for elem in cls}
    left = [len(cls) for cls in d.classes]
    stack: list[int] = []
    for elem in boundary_cycle(d):
        num = num_of[elem]
        if left[num] == len(d.classes[num]):
            stack.append(num)
        elif stack[-1] != num:
            return False
        left[num] -= 1
        if not left[num]:
            stack.pop()
    return True


# ---------------------------------------------------------------------------
# Rendering and JSON


def _index_row(n: int, width: int) -> str:
    cells = [str(i).rjust(width) for i in range(n - 1, -1, -1)]
    return " ".join(cells)


def render_ascii(d: Diagram) -> str:
    """Deterministic text picture: indices descending left to right, vertical
    bars for straight-through links, remaining structure listed explicitly."""
    width = max(1, len(str(max(d.src_len, d.tgt_len, 1) - 1)))
    top = _index_row(d.src_len, width)
    bottom = _index_row(d.tgt_len, width)
    span = max(len(top), len(bottom))
    top = top.rjust(span)
    bottom = bottom.rjust(span)

    def col(side: str, i: int) -> int:
        # Character column of index i, right-aligned rows.
        return span - 1 - i * (width + 1) - 0

    bars = [" "] * span
    extras: list[str] = []
    if isinstance(d, RelDiagram):
        for i, j in sorted(d.pairs):
            if i == j:
                bars[col("s", i)] = "|"
            else:
                extras.append(f"({i},{j})")
        legend = "pairs: " + " ".join(extras) if extras else ""
    else:
        straight = {cls for cls in d.classes if len(cls) == 2
                    and cls[0][0] == "s" and cls[1][0] == "t"
                    and cls[0][1] == cls[1][1]}
        for cls in straight:
            bars[col("s", cls[0][1])] = "|"
        listed = [
            "{" + " ".join(f"{side}{i}" for side, i in cls) + "}"
            for cls in d.classes if cls not in straight
        ]
        legend = "classes: " + " ".join(listed) if listed else ""

    def label(word: Optional[str]) -> str:
        return f"  [{word_to_str(word)}]" if word is not None else ""

    lines = [top + label(d.src_word), "".join(bars), bottom + label(d.tgt_word)]
    if legend:
        lines.append(legend)
    return "\n".join(lines)


def to_json(d: Diagram) -> str:
    payload: dict = {"src": d.src_len, "tgt": d.tgt_len}
    if isinstance(d, RelDiagram):
        payload["kind"] = "rel"
        payload["pairs"] = sorted(list(p) for p in d.pairs)
    else:
        payload["kind"] = "spliteq"
        payload["classes"] = [[[side, i] for side, i in cls] for cls in d.classes]
    if d.src_word is not None:
        payload["src_word"] = word_to_str(d.src_word)
    if d.tgt_word is not None:
        payload["tgt_word"] = word_to_str(d.tgt_word)
    return json.dumps(payload, sort_keys=True)


def _parse_count(value) -> int:
    # JSON booleans are ints in Python, and a float index must not be
    # truncated, so only a plain non-negative int is accepted.
    if type(value) is not int or value < 0:
        raise DiagramError(f"expected a non-negative integer, got {value!r}")
    return value


def _parse_word_label(value) -> Optional[str]:
    if value is None:
        return None
    word = "" if value == "e" else value
    if not isinstance(word, str) or word.strip("bd"):
        raise DiagramError(f"bad modality word label {value!r}")
    return word


def from_json(text: str) -> Diagram:
    """Parse :func:`to_json` output; any malformed field is a DiagramError."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramError(f"malformed JSON: {exc}") from exc
    try:
        kind = payload["kind"]
        src, tgt = _parse_count(payload["src"]), _parse_count(payload["tgt"])
        src_word = _parse_word_label(payload.get("src_word"))
        tgt_word = _parse_word_label(payload.get("tgt_word"))
        if kind == "rel":
            pairs = [(_parse_count(i), _parse_count(j))
                     for i, j in payload["pairs"]]
            return rel(src, tgt, pairs, src_word, tgt_word)
        if kind == "spliteq":
            classes = [[(side, _parse_count(i)) for side, i in cls]
                       for cls in payload["classes"]]
            return spliteq(src, tgt, classes, src_word, tgt_word)
    except (KeyError, TypeError, ValueError) as exc:
        raise DiagramError(f"malformed diagram JSON: {exc}") from exc
    raise DiagramError(f"unknown diagram kind {payload.get('kind')!r}")
