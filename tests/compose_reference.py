"""Reference composition of the two diagram carriers, independent of
``diagram.fold``: a dict join for relations, and a union-find over tagged
elements for split equivalences.  Tests compare the library's composition
against these.
"""

from modalcoherence import diagram as dg


def rel_compose(g: dg.RelDiagram, f: dg.RelDiagram) -> dg.RelDiagram:
    """Relational composite of f followed by g."""
    if f.tgt_len != g.src_len:
        raise dg.DiagramError(
            f"cannot compose: middle lengths {f.tgt_len} != {g.src_len}")
    by_mid: dict[int, list[int]] = {}
    for j, k in g.pairs:
        by_mid.setdefault(j, []).append(k)
    pairs = {(i, k) for i, j in f.pairs for k in by_mid.get(j, ())}
    return dg.rel(f.src_len, g.tgt_len, pairs, f.src_word, g.tgt_word)


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        root = x
        while self.parent.setdefault(root, root) != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)


def spliteq_compose(g: dg.SplitEq, f: dg.SplitEq) -> dg.SplitEq:
    """Compose f then g: transitive closure over the middle, middle deleted."""
    if f.tgt_len != g.src_len:
        raise dg.DiagramError(
            f"cannot compose: middle lengths {f.tgt_len} != {g.src_len}")
    uf = _UnionFind()
    # Elements are tagged ("s",i) source of f, ("m",k) middle, ("t",j) target
    # of g; classes entirely inside the middle are simply never emitted.
    for cls in f.classes:
        tagged = [("s", i) if side == "s" else ("m", i) for side, i in cls]
        for elem in tagged[1:]:
            uf.union(tagged[0], elem)
    for cls in g.classes:
        tagged = [("m", i) if side == "s" else ("t", i) for side, i in cls]
        for elem in tagged[1:]:
            uf.union(tagged[0], elem)
    groups: dict = {}
    for i in range(f.src_len):
        groups.setdefault(uf.find(("s", i)), []).append(("s", i))
    for j in range(g.tgt_len):
        groups.setdefault(uf.find(("t", j)), []).append(("t", j))
    return dg.spliteq(f.src_len, g.tgt_len, groups.values(), f.src_word,
                      g.tgt_word)


def compose(g: dg.Diagram, f: dg.Diagram) -> dg.Diagram:
    if isinstance(f, dg.RelDiagram) and isinstance(g, dg.RelDiagram):
        return rel_compose(g, f)
    return spliteq_compose(g, f)
