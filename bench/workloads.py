"""The benchmark's workloads: seeded inputs, their known answers, and checks.

Every workload is one closed-loop client: it sends one library call, waits
for the answer, and only then sends the next.  No measured query fails: the
known defects are ``defects()``, which a run sends once, apart from the
measured queries, to show whether each is still there.  A workload is a
sequence of *rounds*.  Each round is a stratified batch of queries drawn
from a generator seeded by the run's seed and the round's index, so every
round has the same mix and a run is a whole number of rounds.  Inputs are
generated before a round is timed and the library receives only those
inputs.  Known answers come from
:mod:`reference`, closed-form counts or the paper's theorems, never from
``modalcoherence.interp``.

Input generation uses only the benchmark's own code (random walks, slides,
insertions, mutations over factor triples), so the same seed gives the same
inputs whatever a later change does to the library's internals.

Why each workload was chosen:

``decide``
    Seeded random term pairs, given as text so that parsing counts, from s5
    at 16/64/128 generators and s4_boxdia, s42, s4_boxdia_chi and s4_box_chi
    at 16/64/256, plus the sharp quotients at 16/64.  Half the pairs are
    equal by construction, the rest are unequal pairs of one type, and each
    round has one type mismatch.  Every non-sharp cell also asks for a
    normal form.  A chain of 1024 compositions, which the parser cannot read
    (a known defect), is sent once a run, outside the measured queries.
    Here ``terms``, ``interp`` and ``diagram`` on large boundaries do nearly
    all the work and ``rewrite`` and hom enumeration do none: it is where a
    faster evaluator shows, and the bypass workload for proof search and hom
    enumeration.
``prove``
    A seeded sample of the desk-scale completeness sweep's pair set (every
    pair of terms with at most 4 generators and equal diagrams, grouped as
    that sweep groups them), stratified by each theory's pair count, through
    ``prove_equal_bounded`` at depth 12 and size slack 2.  Each run also
    carries, once, the one s42 pair that the greedy normalizer does not
    join.  The chi pair that is unproved at slack 2 in three theories (a
    known defect) is sent once a run, outside the measured queries.  Here
    ``rewrite``, ``schemas.match_side`` and the whole-term ``interp`` guard
    do all the work, on tiny terms; it is the only workload a proof-search
    change should move.
``hom``
    ``enum_hom`` by exact noncrossing enumeration (s5 and fives, 6 to 10
    boundary points), over the structural grids (s4_dia, s4_dia_chi, s4_box,
    t_dia, s_chi), and by bounded witness search (the 49 s4_boxdia skeleton
    pairs, s42, one sharp quotient).  Partition enumeration, ``realizable``
    and ``synthesize`` do the work and ``rewrite`` does none.
``soundness``
    ``check_soundness`` on every registry theory and admissible functor
    variant, one equation schema per query, at index bound 2 and arrow
    bound 2: 390 queries and 25,351 instances a round.  It is the only
    workload that drives the one-sided, dual and sharp functors and
    ``schemas.instantiate``, and it runs ``interp`` on tens of thousands of
    tiny terms, where per-call overhead dominates rather than composition
    size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from random import Random

import reference as ref


@dataclass
class Query:
    op: str          # decide | normalize | prove | hom | soundness
    theory: str
    args: tuple      # what the library receives
    known: object    # the known answer the check compares against
    props: dict = field(default_factory=dict)  # recorded input properties


def round_rng(seed: int, index: int) -> Random:
    return Random(seed * 1_000_003 + index)


# ---------------------------------------------------------------------------
# Terms as factor triples


def applicable(gens: tuple, word: str) -> list:
    """Single-generator factors with source ``word``, by kind then depth."""
    out = []
    for kind in gens:
        pre = ref.GENERATORS[kind][0]
        depth = word.find(pre)
        while depth >= 0:
            out.append((word[:depth], kind, word[depth + len(pre):]))
            depth = word.find(pre, depth + 1)
    return out


def walk(gens: tuple, src: str, n: int, rng: Random, tries: int = 64,
         max_words: float = float("inf")):
    """A random generator walk of exactly ``n`` factors from ``src``; walks
    that get stuck, or whose word lengths sum past ``max_words``, are
    rejected and drawn again.  None if all are rejected."""
    for _ in range(tries):
        word, factors, words = src, [], len(src)
        while len(factors) < n and words <= max_words:
            options = applicable(gens, word)
            if not options:
                break
            factor = rng.choice(options)
            factors.append(factor)
            word = ref.factor_tgt(factor)
            words += len(word)
        if len(factors) == n and words <= max_words:
            return factors
    return None


def random_walk_term(gens: tuple, n: int, rng: Random,
                     mean_width: float = None) -> tuple:
    """(source word, factors) of a full-length walk from a random source of
    1 to 3 letters.  With ``mean_width``, walks whose boundary width,
    averaged over their n + 1 words, is more than 15 % away are drawn again:
    that width sets most of a term's cost."""
    limit = float("inf") if mean_width is None else 1.15 * mean_width * (n + 1)
    for _ in range(256):
        src = "".join(rng.choice("bd") for _ in range(rng.randint(1, 3)))
        factors = walk(gens, src, n, rng, max_words=limit)
        if factors is None:
            continue
        if mean_width is not None:
            words = len(src) + sum(len(ref.factor_tgt(f)) for f in factors)
            if words < 0.85 * mean_width * (n + 1):
                continue
        return src, factors
    raise RuntimeError(f"no walk of {n} generators of {gens} found")


def width(src: str, factors) -> int:
    return max([len(src)] + [len(ref.factor_tgt(f)) for f in factors])


def term_props(theory: str, src: str, factors) -> dict:
    _, tgt = ref.term_type(src, factors)
    return {"theory": theory, "gens": len(factors),
            "points": len(src) + len(tgt), "width": width(src, factors)}


def _slide(f1, f2):
    """Interchange two adjacent factors acting on disjoint strands (the
    naturality of the upper generator); None when they overlap."""
    u = ref.factor_src(f1)
    p1, kind1, i1 = f1
    p2, kind2, i2 = f2
    s1, t1 = (len(w) for w in ref.GENERATORS[kind1][:2])
    s2, t2 = (len(w) for w in ref.GENERATORS[kind2][:2])
    k1, k2 = len(i1), len(i2)
    if k2 >= k1 + t1:        # f2 acts above the strands f1 produced
        k = k2 - t1 + s1
        g1 = (p2, kind2, u[len(u) - k:])
        w = ref.factor_tgt(g1)
        g2 = (w[:len(w) - k1 - s1], kind1, i1)
    elif k2 + s2 <= k1:      # f2 acts below them
        g1 = (u[:len(u) - k2 - s2], kind2, i2)
        w = ref.factor_tgt(g1)
        k = k1 - s2 + t2
        g2 = (p1, kind1, w[len(w) - k:])
    else:
        return None
    if (ref.factor_src(g1) != u or ref.factor_src(g2) != w
            or ref.factor_tgt(g2) != ref.factor_tgt(f2)):
        return None
    return g1, g2


def _identity_pairs(gens: tuple, word: str) -> list:
    """Two-factor expansions of the identity on ``word`` by the comonad
    counit laws and the involution of the permutations."""
    out = []
    for depth in range(len(word)):
        pre, letter, idx = word[:depth], word[depth], word[depth + 1:]
        if letter == "b" and {"eps_box", "delta_bb"} <= set(gens):
            out.append([(pre, "delta_bb", idx), (pre, "eps_box", "b" + idx)])
            out.append([(pre, "delta_bb", idx), (pre + "b", "eps_box", idx)])
        if letter == "d" and {"eps_dia", "delta_dd"} <= set(gens):
            out.append([(pre, "eps_dia", "d" + idx), (pre, "delta_dd", idx)])
            out.append([(pre + "d", "eps_dia", idx), (pre, "delta_dd", idx)])
        for kind in ("chi_bb", "chi_dd"):
            if kind in gens and word.startswith(kind[-2:], depth):
                chi = (pre, kind, word[depth + 2:])
                out.append([chi, chi])
    return out


def rewrite_walk(gens: tuple, src: str, factors, rng: Random,
                 insertions: int = 2) -> list:
    """A random walk of equations applied to a term: identity expansions
    inserted at random boundaries, then random slides."""
    fs = list(factors)
    for _ in range(insertions):
        at = rng.randrange(len(fs) + 1)
        word = src if at == 0 else ref.factor_tgt(fs[at - 1])
        options = _identity_pairs(gens, word)
        if options:
            fs[at:at] = rng.choice(options)
    for _ in range(len(fs)):
        if len(fs) < 2:
            break
        i = rng.randrange(len(fs) - 1)
        moved = _slide(fs[i], fs[i + 1])
        if moved is not None:
            fs[i], fs[i + 1] = moved
    return fs


def _paths(gens: tuple, src: str, length: int) -> list:
    """Every path of ``length`` factors from ``src``."""
    paths = [[]]
    for _ in range(length):
        paths = [p + [f] for p in paths
                 for f in applicable(gens, ref.factor_tgt(p[-1]) if p else src)]
    return paths


def _preceding(gens: tuple, word: str) -> list:
    """Single-generator factors with target ``word``."""
    out = []
    for kind in gens:
        tgt_pre = ref.GENERATORS[kind][1]
        depth = word.find(tgt_pre)
        while depth >= 0:
            out.append((word[:depth], kind, word[depth + len(tgt_pre):]))
            depth = word.find(tgt_pre, depth + 1)
    return out


def _between(gens: tuple, u: str, v: str, length: int) -> list:
    """Paths of one or two factors from ``u`` to ``v``."""
    if length == 1:
        return [[f] for f in applicable(gens, u) if ref.factor_tgt(f) == v]
    ends: dict = {}
    for g in _preceding(gens, v):
        ends.setdefault(ref.factor_src(g), []).append(g)
    return [[f, g] for f in applicable(gens, u)
            for g in ends.get(ref.factor_tgt(f), ())]


def mutate(theory: str, gens: tuple, factors, rng: Random, tries: int = 32):
    """Replace a window of one or two factors by another path between the
    same words whose own image differs; None if no window has one.  Paths
    with the same image as the window would leave the term's image as it
    is, so only these can make an unequal pair."""
    for _ in range(tries):
        length = min(len(factors), rng.choice((1, 2)))
        i = rng.randrange(len(factors) - length + 1)
        window = factors[i:i + length]
        u = ref.factor_src(window[0])
        paths = [p for p in _between(gens, u, ref.factor_tgt(window[-1]),
                                     length) if p != window]
        own = None
        for path in rng.sample(paths, min(len(paths), 4)):
            own = own or ref.image(theory, u, window)
            if ref.image(theory, u, path) != own:
                return factors[:i] + path + factors[i + length:]
    return None


def _spliced_pair(theory: str, gens: tuple, n: int, rng: Random):
    """Two terms that start with different two-factor paths between the same
    words, whose own images differ, and go on alike.  Local mutations almost
    never change a sharp-quotient image, which forgets repeated letters, so
    these pairs start from an alternating word of 5 to 7 letters, which
    repeats none."""
    first_letter = rng.randrange(2)
    src = "".join("bd"[(first_letter + i) % 2]
                  for i in range(rng.randint(5, 7)))
    by_end: dict = {}
    for path in _paths(gens, src, 2):
        by_end.setdefault(ref.factor_tgt(path[-1]), {}).setdefault(
            ref.image(theory, src, path), path)
    choices = [list(v.values()) for v in by_end.values() if len(v) > 1]
    if not choices:
        return None
    first, second = rng.sample(rng.choice(choices), 2)
    tail = walk(gens, ref.factor_tgt(first[-1]), n - 2, rng)
    if tail is None:
        return None
    return (src, first + tail), (src, second + tail)


# ---------------------------------------------------------------------------
# decide


# (theory, generators, mean boundary width): the width is the median over
# random walks of that length from 1 to 3 letters.
DECIDE_CELLS = [
    ("s5", 16, 6), ("s5", 64, 15), ("s5", 128, 28),
    ("s4_boxdia", 16, 5), ("s4_boxdia", 64, 10), ("s4_boxdia", 256, 17.5),
    ("s42", 16, 5), ("s42", 64, 10), ("s42", 256, 19),
    ("s4_boxdia_chi", 16, 5), ("s4_boxdia_chi", 64, 9),
    ("s4_boxdia_chi", 256, 15.5),
    ("s4_box_chi", 16, 4.5), ("s4_box_chi", 64, 7), ("s4_box_chi", 256, 13),
    ("s4_boxdia_sharp", 16, 5), ("s4_boxdia_sharp", 64, 9.5),
    ("s42_sharp", 16, 5), ("s42_sharp", 64, 9),
]
DEEP_CHAIN = ("s4_boxdia", 1024, 39)


def _pair_query(theory, left, right, kind):
    known = ref.verdict(theory, left, right)
    props = term_props(theory, *left)
    props.update(kind=kind, gens_right=len(right[1]))
    return Query("decide", theory,
                 (ref.term_text(*left), ref.term_text(*right)), known, props)


class Decide:
    name = "decide"
    trace_rounds = 2

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed

    def _gens(self, theory):
        return tuple(sorted(self.lib.theories.get_theory(theory).generators))

    def fixed(self):
        return []

    def round(self, rng: Random) -> list:
        queries = []
        for theory, n, mean_width in DECIDE_CELLS:
            gens = self._gens(theory)
            src, fs = random_walk_term(gens, n, rng, mean_width)
            queries.append(_pair_query(
                theory, (src, fs), (src, rewrite_walk(gens, src, fs, rng)),
                "equal"))
            queries.append(self._unequal(theory, gens, n, mean_width, rng))
            if theory not in ref.SHARP_THEORIES:
                props = term_props(theory, src, fs)
                props["kind"] = "normalize"
                image = ref.image(theory, src, fs)
                queries.append(Query("normalize", theory,
                                     (ref.term_text(src, fs),), image, props))
        queries.append(self._mismatch(rng))
        rng.shuffle(queries)
        return queries

    def defects(self):
        theory, n, mean_width = DEEP_CHAIN
        gens = self._gens(theory)
        rng = Random(self.seed)
        src, fs = random_walk_term(gens, n, rng, mean_width)
        return [_pair_query(
            theory, (src, fs), (src, rewrite_walk(gens, src, fs, rng)),
            "deep_chain")]

    def _unequal(self, theory, gens, n, mean_width, rng):
        for _ in range(64):
            if theory in ref.SHARP_THEORIES:
                pairs = [_spliced_pair(theory, gens, n, rng)]
            else:
                src, fs = random_walk_term(gens, n, rng, mean_width)
                rewritten = rewrite_walk(gens, src, fs, rng)
                known = ref.image(theory, src, fs)
                pairs = (((src, fs), (src, other)) for other in (
                    mutate(theory, gens, rewritten, rng) for _ in range(64))
                    if other and ref.image(theory, src, other) != known)
            for pair in pairs:
                if pair and ref.verdict(theory, *pair) == "not_equal":
                    return _pair_query(theory, *pair, "unequal")
        raise RuntimeError(f"no unequal pair found in {theory}")

    def _mismatch(self, rng):
        cells = [c for c in DECIDE_CELLS if c[1] == 16]
        for _ in range(64):
            theory, n, mean_width = rng.choice(cells)
            gens = self._gens(theory)
            src, fs = random_walk_term(gens, n, rng, mean_width)
            tgt = ref.term_type(src, fs)[1]
            longer = [f for f in applicable(gens, tgt)
                      if ref.factor_tgt(f) != tgt]
            if longer:
                return _pair_query(theory, (src, fs),
                                   (src, fs + [rng.choice(longer)]),
                                   "type_mismatch")
        raise RuntimeError("no type-mismatched pair found")

    def check(self, q: Query, answer) -> str:
        if q.op == "decide":
            return "ok" if answer.verdict == q.known else "wrong"
        src, fs = ref.term_factors(answer)
        try:
            got = ref.image(q.theory, src, fs)
        except ref.ReferenceError:
            return "wrong"
        return "ok" if got == q.known else "wrong"


# ---------------------------------------------------------------------------
# prove


def _words(max_len: int) -> list:
    out, level = [""], [""]
    for _ in range(max_len):
        level = [w + c for w in level for c in "bd"]
        out.extend(level)
    return out


# Theories and source words of the desk-scale completeness sweep.
SWEEP_SOURCES = {
    "t_box": ["b" * k for k in range(6)],
    "s4_box": ["b", "bb", "bbb"],
    "s4_dia": ["d", "dd", "ddd"],
    "s4_boxdia": _words(2),
    "s42": _words(2),
    "s5": _words(2),
}
SWEEP_GENERATORS = 4
PROVE_ROUND = 200
PROVE_DEPTH = 12
PROVE_SLACK = 2

_CHI_LEFT = [("", "chi_bb", ""), ("b", "delta_bb", "")]
_CHI_RIGHT = [("", "delta_bb", "b"), ("b", "chi_bb", ""), ("", "chi_bb", "b")]
_S42_LEFT = [("", "chi_db", ""), ("", "delta_bb", "d"), ("", "delta_bb", "bd")]
_S42_RIGHT = [("d", "delta_bb", ""), ("", "chi_db", "b"),
              ("", "delta_bb", "db"), ("bb", "chi_db", "")]
# Pairs with equal diagrams that the search finds hard.  The chi pair is
# unproved at size slack 2 in all three theories (a known defect); the s42
# pair is the one pair of the sweep that greedy normalization does not join.
CHI_UNPROVED = [
    ("splus_chi_op", "bb", _CHI_LEFT, _CHI_RIGHT, "chi_unproved"),
    ("s4_box_chi", "bb", _CHI_LEFT, _CHI_RIGHT, "chi_unproved"),
    ("s4_boxdia_chi", "bb", _CHI_LEFT, _CHI_RIGHT, "chi_unproved"),
]
GREEDY_MISS = ("s42", "db", _S42_LEFT, _S42_RIGHT, "greedy_miss")


def sweep_pairs(lib) -> dict:
    """Pairs (src, representative, other) of every theory of the sweep:
    terms are grouped by reference image, in breadth-first order, and each
    group's first term is paired with every other member."""
    out = {}
    for theory, sources in SWEEP_SOURCES.items():
        gens = tuple(sorted(lib.theories.get_theory(theory).generators))
        pairs = []
        for src in sources:
            terms, frontier = [()], [(src, ())]
            for _ in range(SWEEP_GENERATORS):
                grown = []
                for word, fs in frontier:
                    for f in applicable(gens, word):
                        grown.append((ref.factor_tgt(f), fs + (f,)))
                        terms.append(fs + (f,))
                frontier = grown
            groups = {}
            for fs in terms:
                groups.setdefault(ref.image(theory, src, fs), []).append(fs)
            for group in groups.values():
                pairs.extend((src, group[0], other) for other in group[1:])
        out[theory] = pairs
    return out


def apportion(counts: dict, total: int) -> dict:
    """Largest-remainder shares of ``total``, at least one per key."""
    whole = sum(counts.values())
    exact = {k: total * v / whole for k, v in counts.items()}
    share = {k: max(1, int(x)) for k, x in exact.items()}
    by_rest = sorted(counts, key=lambda k: exact[k] - share[k], reverse=True)
    for k in itertools.islice(itertools.cycle(by_rest),
                              max(0, total - sum(share.values()))):
        share[k] += 1
    return share


class Prove:
    name = "prove"
    trace_rounds = 4

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.pairs = sweep_pairs(lib)
        shuffler = Random(seed)
        for pairs in self.pairs.values():
            shuffler.shuffle(pairs)
        self.quota = apportion({t: len(p) for t, p in self.pairs.items()},
                               PROVE_ROUND)
        self.next = {t: 0 for t in self.pairs}

    def _query(self, theory, src, left, right, kind):
        if ref.verdict(theory, (src, left), (src, right)) != "equal":
            raise RuntimeError(f"{kind} pair in {theory} is not equal")
        parse = self.lib.terms.parse_term
        props = term_props(theory, src, left)
        props.update(kind=kind, gens_right=len(right))
        return Query("prove", theory,
                     (parse(ref.term_text(src, left)),
                      parse(ref.term_text(src, right))), "equal", props)

    def fixed(self):
        return [self._query(*GREEDY_MISS)]

    def defects(self):
        return [self._query(*pair) for pair in CHI_UNPROVED]

    def round(self, rng: Random) -> list:
        # Pairs are dealt from each theory's shuffled list, so no pair repeats
        # within a run; ``rng`` only orders the round.
        queries = []
        for theory, count in self.quota.items():
            pairs = self.pairs[theory]
            for _ in range(count):
                src, left, right = pairs[self.next[theory] % len(pairs)]
                self.next[theory] += 1
                queries.append(self._query(theory, src, left, right, "sweep"))
        rng.shuffle(queries)
        return queries

    def check(self, q: Query, answer) -> str:
        if not answer.proved:
            return "failed"  # no answer where the answer is known
        return "ok" if len(answer.steps) <= PROVE_DEPTH else "wrong"


# ---------------------------------------------------------------------------
# hom


# (theory, boundary points) of the exact noncrossing queries of a round.
NONCROSSING = [("s5", 10), ("s5", 8), ("s5", 8), ("fives", 8), ("fives", 8),
               ("s5", 6), ("fives", 6)]
# (theory, letter, grid size): Hom(x^m, x^n) for m, n < size.
GRIDS = [("s4_dia", "d", 6), ("s4_dia_chi", "d", 5), ("s4_box", "b", 6),
         ("t_dia", "d", 6), ("s_chi", "b", 5)]
# Reachability in the preorder skeleton of s4_boxdia_triv; Hom in s4_boxdia
# has exactly one arrow between reachable objects, except two from bdb to
# dbd.
SKELETON_REACH = {
    "b": {"b", "bdb", "db", "bd", "dbd", "d", ""},
    "bdb": {"bdb", "db", "bd", "dbd", "d"},
    "db": {"db", "dbd", "d"},
    "bd": {"bd", "dbd", "d"},
    "dbd": {"dbd", "d"},
    "d": {"d"},
    "": {"", "d"},
}
WITNESS_BUDGET = 6
SHARP_BUDGET = 4


def _random_word(rng: Random, lo: int, hi: int) -> str:
    return "".join(rng.choice("bd") for _ in range(rng.randint(lo, hi)))


class Hom:
    name = "hom"
    trace_rounds = 2

    def __init__(self, lib, seed: int):
        self.lib = lib

    def fixed(self):
        return []

    def defects(self):
        return []

    def _query(self, theory, src, tgt, budget, known, kind):
        props = {"theory": theory, "points": len(src) + len(tgt),
                 "kind": kind}
        return Query("hom", theory,
                     (self.lib.decide.HomQuery(theory, src, tgt, budget),),
                     known, props)

    def round(self, rng: Random) -> list:
        queries = []
        for theory, points in NONCROSSING:
            m = rng.randint(2, points - 2)
            src = "".join(rng.choice("bd") for _ in range(m))
            tgt = "".join(rng.choice("bd") for _ in range(points - m))
            queries.append(self._query(theory, src, tgt, WITNESS_BUDGET, None,
                                       "noncrossing"))
        for theory, letter, size in GRIDS:
            for m in range(size):
                for n in range(size):
                    queries.append(self._query(
                        theory, letter * m, letter * n, WITNESS_BUDGET,
                        ref.structural_hom_count(theory, m, n), "grid"))
        for a, b in itertools.product(SKELETON_REACH, repeat=2):
            known = 2 if (a, b) == ("bdb", "dbd") else int(b in SKELETON_REACH[a])
            queries.append(self._query("s4_boxdia", a, b, WITNESS_BUDGET,
                                       known, "skeleton"))
        for _ in range(3):
            queries.append(self._query("s42", _random_word(rng, 1, 3),
                                       _random_word(rng, 1, 3),
                                       WITNESS_BUDGET, None, "bounded"))
        queries.append(self._query("s4_boxdia_sharp", _random_word(rng, 1, 3),
                                   _random_word(rng, 1, 3), SHARP_BUDGET,
                                   None, "sharp"))
        rng.shuffle(queries)
        return queries

    def check(self, q: Query, answer) -> str:
        hq = q.args[0]
        keys = set()
        for d in answer.diagrams:
            witness = answer.witnesses.get(d.key())
            if witness is None:
                return "wrong"
            src, fs = ref.term_factors(witness)
            try:
                got = ref.image(q.theory, src, fs)
            except ref.ReferenceError:
                return "wrong"
            expected = ref.library_key(d)
            words = (ref.collapse(hq.src), ref.collapse(hq.tgt)) \
                if q.theory in ref.SHARP_THEORIES else (hq.src, hq.tgt)
            if got != expected or expected[4:] != words:
                return "wrong"
            keys.add(expected)
        if len(keys) != len(answer.diagrams):
            return "wrong"
        if q.known is not None and len(keys) != q.known:
            return "wrong"
        return "ok"


# ---------------------------------------------------------------------------
# soundness


# Functor variants beyond the standard one, as the paper admits them.
EPS_THEORIES = {"k", "t_box", "t_dia", "k4_box", "k4_dia", "t_boxdia"}
DELTA_THEORIES = {"k", "t_box", "t_dia", "k4_box", "k4_dia", "k4_boxdia"}
DUAL_THEORIES = {"s5", "fives"}
SOUNDNESS_IDX_BOUND = 2
SOUNDNESS_F_BOUND = 2


def variants(theory) -> list:
    out = ["std"]
    if theory.id in EPS_THEORIES:
        out.append("eps")
    if theory.id in DELTA_THEORIES:
        out.append("delta")
    if theory.id in DUAL_THEORIES:
        out.append("dual")
    if theory.quotient == "sharp":
        out.append("sharp")
    return out


def _arrow_count(gens: tuple, word: str, bound: int) -> int:
    """Factor lists of length <= bound from ``word`` (the empty list too)."""
    total, frontier = 1, [word]
    for _ in range(bound):
        frontier = [ref.factor_tgt(f) for w in frontier
                    for f in applicable(gens, w)]
        total += len(frontier)
    return total


class Soundness:
    """A round is the whole sweep, in an order drawn from the round's
    generator, so every run asks the same queries a whole number of times."""
    name = "soundness"
    trace_rounds = 1

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.items = []
        words = _words(SOUNDNESS_IDX_BOUND)
        registry = lib.theories.REGISTRY
        for tid in sorted(registry):
            theory = registry[tid]
            gens = tuple(sorted(theory.generators))
            for variant in variants(theory):
                for sid in theory.equations:
                    schema = lib.schemas.get_schema(sid)
                    if schema.pattern_based and schema.naturality:
                        instances = sum(_arrow_count(gens, w, SOUNDNESS_F_BOUND)
                                        for w in words)
                    else:
                        instances = len(words)
                    self.items.append((replace(theory, equations=(sid,)),
                                       variant, instances))

    def fixed(self):
        return []

    def defects(self):
        return []

    def round(self, rng: Random) -> list:
        queries = [Query("soundness", theory.id, (theory, variant), instances,
                         {"theory": theory.id, "variant": variant,
                          "instances": instances})
                   for theory, variant, instances in self.items]
        rng.shuffle(queries)
        return queries

    def check(self, q: Query, answer) -> str:
        # Every equation holds under every admissible functor (the paper's
        # soundness theorems); the instance count is enumerated above.
        ok = answer.passed and answer.instances == q.known
        return "ok" if ok else "wrong"


WORKLOADS = {w.name: w for w in (Decide, Prove, Hom, Soundness)}
