"""Finite-ordinal functions, their canonical decompositions, and the
embeddings realizing them as diamond-fragment deductions.

A total function h: m -> n between finite ordinals is stored as the value
sequence (h(0), ..., h(m-1)).  Composition is diagrammatic: ``compose(g, f)``
applies f first.  The three decompositions here are the ones the coherence
proofs run on: surjection-injection (thin), injection-surjection (thick), and
bijection-then-monotone with a minimal-inversion permutation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .decide import synthesize
from .diagram import RelDiagram, rel
from .terms import ArrowTerm, DIA, TermError


class FinMapError(TermError):
    pass


@dataclass(frozen=True)
class FinMap:
    dom: int
    cod: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.dom:
            raise FinMapError(f"expected {self.dom} values, got {len(self.values)}")
        for v in self.values:
            if not (0 <= v < self.cod):
                raise FinMapError(f"value {v} out of codomain {self.cod}")

    def __call__(self, i: int) -> int:
        return self.values[i]

    @property
    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.values)))

    @property
    def monotone(self) -> bool:
        return all(self.values[i] <= self.values[i + 1]
                   for i in range(self.dom - 1))

    @property
    def injective(self) -> bool:
        return len(set(self.values)) == self.dom

    @property
    def surjective(self) -> bool:
        return len(set(self.values)) == self.cod

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective

    def graph(self, src_word=None, tgt_word=None) -> RelDiagram:
        return rel(self.dom, self.cod,
                   ((i, self.values[i]) for i in range(self.dom)),
                   src_word, tgt_word)

    def to_json(self) -> str:
        return json.dumps({"dom": self.dom, "cod": self.cod,
                           "values": list(self.values)})


def finmap(dom: int, cod: int, values: Iterable[int]) -> FinMap:
    return FinMap(dom, cod, tuple(values))


def finmap_from_json(text: str) -> FinMap:
    try:
        payload = json.loads(text)
        return finmap(payload["dom"], payload["cod"], payload["values"])
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise FinMapError(f"malformed function JSON: {exc}") from exc


def identity_map(n: int) -> FinMap:
    return finmap(n, n, range(n))


def compose_maps(g: FinMap, f: FinMap) -> FinMap:
    if f.cod != g.dom:
        raise FinMapError(f"cannot compose: {f.cod} != {g.dom}")
    return finmap(f.dom, g.cod, (g(f(i)) for i in range(f.dom)))


def graph_to_map(d: RelDiagram) -> FinMap:
    """Extract the function from a relation that is a graph; errors if some
    source is not related to exactly one target."""
    values = [None] * d.src_len
    for i, j in d.pairs:
        if values[i] is not None:
            raise FinMapError(f"source {i} has two targets")
        values[i] = j
    if any(v is None for v in values):
        raise FinMapError("relation is not total")
    return finmap(d.src_len, d.tgt_len, values)


# ---------------------------------------------------------------------------
# Decompositions


def decompose_surj_inj(h: FinMap) -> tuple[FinMap, FinMap]:
    """h = h2 . h1 with h1 a monotone surjection onto the image size and h2 a
    monotone injection; the interpolant is minimal (thin)."""
    if not h.monotone:
        raise FinMapError("surjection-injection decomposition needs a monotone map")
    image = h.image
    rank = {v: r for r, v in enumerate(image)}
    h1 = finmap(h.dom, len(image), (rank[v] for v in h.values))
    h2 = finmap(len(image), h.cod, image)
    return h1, h2


def decompose_inj_surj(h: FinMap) -> tuple[FinMap, FinMap]:
    """h = h2 . h1 with h1 a monotone injection and h2 a monotone surjection
    through the thick interpolant of size dom + cod - |image(h)|."""
    if not h.monotone:
        raise FinMapError("injection-surjection decomposition needs a monotone map")
    fibers = [[] for _ in range(h.cod)]
    for i in range(h.dom):
        fibers[h(i)].append(i)
    # One slot per source, plus a filler slot for each missed target.
    slot_targets: list[int] = []
    slot_of_source: dict[int, int] = {}
    for j in range(h.cod):
        if fibers[j]:
            for i in fibers[j]:
                slot_of_source[i] = len(slot_targets)
                slot_targets.append(j)
        else:
            slot_targets.append(j)
    k = len(slot_targets)
    assert k == h.dom + h.cod - len(h.image)
    h1 = finmap(h.dom, k, (slot_of_source[i] for i in range(h.dom)))
    h2 = finmap(k, h.cod, slot_targets)
    return h1, h2


def decompose_bij_monotone(h: FinMap) -> tuple[FinMap, FinMap]:
    """h = h' . p with p the stable-rank bijection and h' monotone.

    Among all such factorizations, p has the minimal number of inversions:
    sources are ranked by (value, source index).
    """
    order = sorted(range(h.dom), key=lambda i: (h(i), i))
    p = finmap(h.dom, h.dom, (order.index(i) for i in range(h.dom)))
    h_mono = finmap(h.dom, h.cod, (h(order[r]) for r in range(h.dom)))
    return p, h_mono


def inversions(p: FinMap) -> int:
    return sum(1 for i in range(p.dom) for j in range(i + 1, p.dom)
               if p(i) > p(j))


# ---------------------------------------------------------------------------
# Embeddings into the diamond fragments


def _check_kind(h: FinMap, need: str) -> None:
    ok = {"monotone": h.monotone, "injective": h.injective,
          "surjective": h.surjective, "any": True}[need]
    if not ok:
        raise FinMapError(f"embedding needs a {need} map, got {h.values}")


def _embed(h: FinMap, theory: str) -> ArrowTerm:
    d = h.graph(DIA * h.dom, DIA * h.cod)
    return synthesize(theory, d)


def embed_monotone(h: FinMap) -> ArrowTerm:
    """Monotone map as a merge-then-insert deduction of the diamond
    comonad/monad fragment."""
    _check_kind(h, "monotone")
    return _embed(h, "s4_dia")


def embed_injection(h: FinMap) -> ArrowTerm:
    """Arbitrary injection, realized with insertions and diamond swaps."""
    _check_kind(h, "injective")
    return _embed(h, "s4_dia_chi")


def embed_surjection(h: FinMap) -> ArrowTerm:
    """Arbitrary surjection, realized with merges and diamond swaps."""
    _check_kind(h, "surjective")
    return _embed(h, "s4_dia_chi")


def embed_function(h: FinMap) -> ArrowTerm:
    """Arbitrary function: swap stage, then merges, then insertions."""
    return _embed(h, "s4_dia_chi")
