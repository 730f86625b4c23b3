"""Independent reference evaluator for the benchmark's known answers.

This module re-derives the standard coherence functor from the generator
clauses of the paper, without importing ``modalcoherence.interp``.  It works
on strands rather than on diagrams: a term is a source word plus its factors
in application order, and each factor acts on the strand at its own operator
position (positions count from the right, 0 is the innermost letter).

Relations (every theory except s5 and fives) keep, for each current position,
the bitmask of source positions related to it:

* ``delete`` (eps_box)   the strand ends and relates to nothing below it;
* ``birth``  (eps_dia)   a new strand that no source reaches;
* ``dup``    (delta_bb)  one strand continues as two;
* ``merge``  (delta_dd)  two strands continue as one;
* ``swap``   (chi_*)     two adjacent strands cross.

Split equivalences (s5 and fives) keep, for each current position, a block of
a union-find: ``kill`` ends a strand but keeps its block, ``birth`` opens a
fresh block, ``split`` (the caps) shares one block between two strands and
``join`` (the cups) merges two blocks.

The sharp quotients are evaluated in their base theory after conjugation by
the collapse arrows, as their functor is defined.

Everything here is iterative, so terms far deeper than the interpreter's
recursion limit are evaluated.  :func:`selftest` checks the evaluator
against diagrams written out by hand.
"""

from __future__ import annotations

import math

# kind -> (source prefix, target prefix, strand action on relations,
#          strand action on split equivalences)
GENERATORS = {
    "eps_box": ("b", "", "delete", "kill"),
    "eps_dia": ("", "d", "birth", "birth"),
    "delta_bb": ("b", "bb", "dup", "split"),
    "delta_dd": ("dd", "d", "merge", "join"),
    "delta_bd": ("d", "bd", None, "split"),
    "delta_db": ("db", "b", None, "join"),
    "sigma_bb": ("b", "bb", None, "split"),
    "sigma_dd": ("dd", "d", None, "join"),
    "sigma_db": ("d", "db", None, "split"),
    "sigma_bd": ("bd", "b", None, "join"),
    "chi_bb": ("bb", "bb", "swap", None),
    "chi_dd": ("dd", "dd", "swap", None),
    "chi_db": ("db", "bd", "swap", None),
    "chi_bd": ("bd", "db", "swap", None),
}

SPLIT_THEORIES = frozenset({"s5", "fives"})
# The sharp quotients, evaluated in their base theory after conjugation.
SHARP_THEORIES = frozenset({"s4_boxdia_sharp", "s42_sharp"})


class ReferenceError(Exception):
    """A term is ill-typed or uses a clause this evaluator does not have."""


# A factor is a (prefix, kind, index) triple: generator ``kind`` at index
# word ``index``, under the operator letters ``prefix``.


def factor_src(factor) -> str:
    prefix, kind, index = factor
    return prefix + GENERATORS[kind][0] + index


def factor_tgt(factor) -> str:
    prefix, kind, index = factor
    return prefix + GENERATORS[kind][1] + index


def term_type(src: str, factors) -> tuple[str, str]:
    """Source and target word of a factor list; raises on a mismatch."""
    word = src
    for factor in factors:
        if factor[1] not in GENERATORS:
            raise ReferenceError(f"unknown generator {factor[1]!r}")
        if factor_src(factor) != word:
            raise ReferenceError(f"factor {factor} does not apply to {word!r}")
        word = factor_tgt(factor)
    return src, word


def term_factors(term) -> tuple[str, list]:
    """Source word and factor triples of a library term, without recursion.

    Reads only the term's data classes (``Id``, ``Gen``, ``App``, ``Comp``):
    composition ``outer . inner`` applies ``inner`` first, and an operator
    application adds its letter to the prefix.
    """
    factors = []
    stack = [(term, "")]
    # Depth-first with the inner operand first gives application order.
    while stack:
        node, prefix = stack.pop()
        name = type(node).__name__
        if name == "Comp":
            stack.append((node.outer, prefix))
            stack.append((node.inner, prefix))
        elif name == "App":
            stack.append((node.body, prefix + node.op))
        elif name == "Gen":
            factors.append((prefix, node.kind, node.index))
        elif name != "Id":
            raise ReferenceError(f"not an arrow term: {node!r}")
    # The source is the source of the first factor, or the word of the
    # innermost identity when there is no factor.
    if factors:
        return factor_src(factors[0]), factors
    node, prefix = term, ""
    while type(node).__name__ in ("Comp", "App"):
        if type(node).__name__ == "Comp":
            node = node.inner
        else:
            prefix += node.op
            node = node.body
    return prefix + node.word, factors


def factor_text(factor) -> str:
    prefix, kind, index = factor
    text = f"{kind}{{{index or 'e'}}}"
    for op in reversed(prefix):
        text = f"{'box' if op == 'b' else 'dia'}({text})"
    return text


def term_text(src: str, factors) -> str:
    """Concrete syntax of a factor list, outermost factor first."""
    if not factors:
        return f"id{{{src or 'e'}}}"
    return " . ".join(factor_text(f) for f in reversed(factors))


# ---------------------------------------------------------------------------
# Collapse arrows of the sharp quotients


def collapse(word: str) -> str:
    out = []
    for c in word:
        if not out or out[-1] != c:
            out.append(c)
    return "".join(out)


def collapse_arrow(word: str) -> list:
    """Factors of the canonical arrow ``word -> collapse(word)``: a doubled
    box loses its inner copy by the counit, a doubled diamond is merged by
    the comultiplication; letters that differ from the next one wrap the
    rest of the arrow."""
    factors: list = []
    prefix = ""
    for i in range(len(word) - 1):
        rest = word[i + 1:]
        if word[i] != word[i + 1]:
            prefix += word[i]
            continue
        # word[i:] -> word[i+1:], then the arrow for word[i+1:].
        if word[i] == "b":
            factors.append((prefix, "eps_box", rest))
        else:
            factors.append((prefix, "delta_dd", rest[1:]))
    return factors


def expand_arrow(word: str) -> list:
    """Factors of the canonical arrow ``collapse(word) -> word``."""
    steps = []
    prefix = ""
    for i in range(len(word) - 1):
        rest = word[i + 1:]
        if word[i] != word[i + 1]:
            prefix += word[i]
            continue
        # After the arrow for word[i+1:], grow word[i+1:] into word[i:].
        if word[i] == "b":
            steps.append((prefix, "delta_bb", rest[1:]))
        else:
            steps.append((prefix, "eps_dia", rest))
    return steps[::-1]


# ---------------------------------------------------------------------------
# Evaluation


def _rel_image(src: str, factors) -> tuple:
    cols = [1 << i for i in range(len(src))]
    for prefix, kind, index in factors:
        k = len(index)
        action = GENERATORS[kind][2]
        if action == "delete":
            del cols[k]
        elif action == "birth":
            cols.insert(k, 0)
        elif action == "dup":
            cols.insert(k, cols[k])
        elif action == "merge":
            cols[k] |= cols.pop(k + 1)
        elif action == "swap":
            cols[k], cols[k + 1] = cols[k + 1], cols[k]
        else:
            raise ReferenceError(f"{kind} has no relational clause")
    pairs = frozenset((i, j) for j, mask in enumerate(cols)
                      for i in range(len(src)) if mask >> i & 1)
    return ("rel", len(src), len(cols), pairs)


def _split_image(src: str, factors) -> tuple:
    parent = list(range(len(src)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cols = list(range(len(src)))
    for prefix, kind, index in factors:
        k = len(index)
        action = GENERATORS[kind][3]
        if action == "kill":
            del cols[k]
        elif action == "birth":
            parent.append(len(parent))
            cols.insert(k, len(parent) - 1)
        elif action == "split":
            cols.insert(k, cols[k])
        elif action == "join":
            parent[find(cols.pop(k + 1))] = find(cols[k])
        else:
            raise ReferenceError(f"{kind} has no split-equivalence clause")
    classes: dict[int, list] = {}
    for i in range(len(src)):
        classes.setdefault(find(i), []).append(("s", i))
    for j, block in enumerate(cols):
        classes.setdefault(find(block), []).append(("t", j))
    return ("spliteq", len(src), len(cols),
            frozenset(frozenset(c) for c in classes.values()))


def image(theory_id: str, src: str, factors) -> tuple:
    """Image of a well-typed factor list under the theory's standard
    functor, as ``(kind, src_len, tgt_len, structure, src_word, tgt_word)``."""
    factors = list(factors)
    src, tgt = term_type(src, factors)
    if theory_id in SHARP_THEORIES:
        conjugated = expand_arrow(src) + factors + collapse_arrow(tgt)
        kind, m, n, pairs = _rel_image(collapse(src), conjugated)
        return (kind, m, n, pairs, collapse(src), collapse(tgt))
    if theory_id in SPLIT_THEORIES:
        return _split_image(src, factors) + (src, tgt)
    return _rel_image(src, factors) + (src, tgt)


def library_key(d) -> tuple:
    """The same tuple for a library ``RelDiagram`` or ``SplitEq``."""
    if hasattr(d, "pairs"):
        return ("rel", d.src_len, d.tgt_len, frozenset(d.pairs),
                d.src_word, d.tgt_word)
    return ("spliteq", d.src_len, d.tgt_len,
            frozenset(frozenset(c) for c in d.classes),
            d.src_word, d.tgt_word)


def verdict(theory_id: str, left: tuple, right: tuple) -> str:
    """Known answer of ``decide_equal`` for two (src, factors) terms."""
    if term_type(*left) != term_type(*right):
        return "type_mismatch"
    same = image(theory_id, *left) == image(theory_id, *right)
    return "equal" if same else "not_equal"


# ---------------------------------------------------------------------------
# Known hom-set sizes


def structural_hom_count(theory_id: str, m: int, n: int):
    """Size of Hom(x^m, x^n) for the theories whose hom-sets are counted in
    closed form (x is the theory's single letter), or None."""
    if theory_id == "s4_dia":  # monotone maps m -> n
        return 1 if m == 0 else math.comb(m + n - 1, m)
    if theory_id == "s4_dia_chi":  # all maps m -> n
        return n ** m
    if theory_id == "s4_box":  # the dual of s4_dia
        return 1 if n == 0 else math.comb(n + m - 1, n)
    if theory_id == "t_dia":  # monotone injections m -> n
        return math.comb(n, m)
    if theory_id == "s_chi":  # injections n -> m
        return math.perm(m, n)
    return None


# ---------------------------------------------------------------------------
# Self-test against diagrams written by hand


def _rel(m, n, pairs, src, tgt):
    return ("rel", m, n, frozenset(pairs), src, tgt)


def _split(m, n, classes, src, tgt):
    return ("spliteq", m, n, frozenset(frozenset(c) for c in classes), src, tgt)


_HAND_WRITTEN = [
    # Criterion 02's worked composition: one class joins all four endpoints.
    ("s5", "db", [("", "delta_bd", "b"), ("b", "delta_db", "")],
     _split(2, 2, [[("s", 0), ("s", 1), ("t", 0), ("t", 1)]], "db", "bb")),
    ("t_box", "b", [("", "eps_box", "")], _rel(1, 0, [], "b", "")),
    ("s4_box", "b", [("", "delta_bb", "")],
     _rel(1, 2, [(0, 0), (0, 1)], "b", "bb")),
    ("s4_dia", "dd", [("", "delta_dd", "")],
     _rel(2, 1, [(0, 0), (1, 0)], "dd", "d")),
    ("s4_box_chi", "bb", [("", "chi_bb", "")],
     _rel(2, 2, [(0, 1), (1, 0)], "bb", "bb")),
    # The counit under a box keeps the outer strand only.
    ("t_box", "bb", [("b", "eps_box", "")], _rel(2, 1, [(1, 0)], "bb", "b")),
    # The unit law of the diamond comonad: the composite is the identity.
    ("s4_dia", "d", [("d", "eps_dia", ""), ("", "delta_dd", "")],
     _rel(1, 1, [(0, 0)], "d", "d")),
    ("s5", "b", [("", "eps_box", "")], _split(1, 0, [[("s", 0)]], "b", "")),
    # A birth then a cap: the new strand is split into two targets.
    ("s5", "", [("", "eps_dia", ""), ("", "delta_bd", "")],
     _split(0, 2, [[("t", 0), ("t", 1)]], "", "bd")),
    # Sharp: id{bb} collapses to the identity on b.
    ("s4_boxdia_sharp", "bb", [], _rel(1, 1, [(0, 0)], "b", "b")),
]


def selftest() -> None:
    """Raise ReferenceError unless every hand-written diagram reproduces."""
    for theory_id, src, factors, expected in _HAND_WRITTEN:
        got = image(theory_id, src, factors)
        if got != expected:
            raise ReferenceError(
                f"reference self-test failed on {theory_id} "
                f"{term_text(src, factors)}: {got} != {expected}")
    if collapse_arrow("bbdd") != [("", "eps_box", "bdd"), ("b", "delta_dd", "")]:
        raise ReferenceError("reference self-test failed on collapse_arrow")
    if structural_hom_count("s4_dia", 2, 3) != 6:
        raise ReferenceError("reference self-test failed on hom counts")


if __name__ == "__main__":
    selftest()
    print("reference self-test passed")
