"""Equational rewriting: developed forms, staged normal forms, bounded
bidirectional proof search, and confluence checking.

Terms are handled in spine form: a source word plus the list of generator
factors in application order (the categorial and functorial equations are
normalized away by this representation).  A rewrite step applies one equation
schema, in either direction, to a contiguous factor segment under a common
operator prefix.

The proof search is the desk-scale independent check against the coherence
decision procedure: it certifies equalities by exhibiting derivations, and
an internal guard asserts that every explored step preserves the diagram
interpretation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .decide import SYNTHESIS_THEORIES, synthesize
from .interp import STD, _image, fold
from .schemas import SCHEMAS, GenPat, Side, build_side, match_side
from .terms import (
    GENERATORS,
    ArrowTerm,
    Factor,
    TermError,
    chain_target,
    factors_to_term,
    term_factors,
    word_to_str,
)
from .theories import (
    STAGE_NUMBERS,
    Theory,
    check_admitted,
    enumerate_factor_terms,
    get_theory,
    typed_factors,
)

DEFAULT_DEPTH = 12


def develop(term: ArrowTerm) -> ArrowTerm:
    """Flatten a term into a composite of single-generator factors."""
    src, _, factors = term_factors(term)
    return factors_to_term(src, factors)


# ---------------------------------------------------------------------------
# Rewrite steps


@dataclass(frozen=True)
class Step:
    schema_id: str
    direction: str  # "lr" or "rl"
    position: int   # index of the first factor replaced
    strip: int      # common prefix depth stripped before matching
    replaced: int   # number of factors removed
    inserted: int   # number of factors inserted
    instantiation: str = ""  # bound metavariables, for the serialized form

    def reversed(self) -> "Step":
        return Step(self.schema_id,
                    "rl" if self.direction == "lr" else "lr",
                    self.position, self.strip, self.inserted, self.replaced,
                    self.instantiation)

    def to_dict(self) -> dict:
        return {"schema": self.schema_id, "direction": self.direction,
                "position": [self.position, self.strip],
                "instantiation": self.instantiation}


def derivation_to_json(steps: list[Step]) -> str:
    return json.dumps([s.to_dict() for s in steps])


def _describe_bindings(bindings: dict) -> str:
    parts = []
    for key in ("A", "B"):
        if key in bindings:
            parts.append(f"{key}={word_to_str(bindings[key])}")
    if "f" in bindings:
        parts.append(f"f={factors_to_term(bindings['A'], bindings['f'])}")
    return " ".join(parts)


def _boundary_words(src: str, factors: tuple[Factor, ...]) -> list[str]:
    words = [src]
    for f in factors:
        words.append(f.tgt)
    return words


def _apply_prefix(factors: list[Factor], prefix: str) -> list[Factor]:
    if not prefix:
        return factors
    return [Factor(prefix + f.prefix, f.kind, f.index) for f in factors]


# One character per generator kind.  A spine's kinds read as a string (its
# code), so the positions where a from-side's fixed kinds fit are found by
# str.find instead of a walk over the factors.
_KIND_CODE = {kind: chr(ord("a") + n) for n, kind in enumerate(GENERATORS)}


def _spine_code(factors: tuple[Factor, ...]) -> str:
    return "".join([_KIND_CODE[f.kind] for f in factors])


class _Matcher(NamedTuple):
    """One schema in one direction, compiled for anchored matching.

    The anchor is the first generator pattern of the from-side, at
    ``offset`` into it.  A match at position i needs factor i + offset to
    have the anchor's kind and a prefix ending in the anchor's prefix, and
    the rest of that prefix is the one strip depth that can match.  The
    kind codes of the from-side's generator patterns from the anchor up to
    its first arrow metavariable form ``needle``, which must occur in the
    spine's code at i + offset.  (Every from-side is either all generator
    patterns or one generator and one arrow, so the needle holds all of its
    fixed kinds; match_side would check any after an arrow.)  A from-side
    without factors (inserting an identity expansion) has no anchor; its
    ``kind`` is empty.
    """
    schema_id: str
    direction: str
    frm: Side
    to: Side
    identity_word: Optional[tuple[str, str]]
    offset: int = 0
    kind: str = ""
    prefix: str = ""
    needle: str = ""


def _compile(schema_id: str, direction: str) -> _Matcher:
    schema = SCHEMAS[schema_id]
    frm, to = (schema.lhs, schema.rhs) if direction == "lr" else (schema.rhs, schema.lhs)
    if not frm:
        return _Matcher(schema_id, direction, frm, to, schema.identity_word)
    # An arrow metavariable matches a factor of any kind: "." never occurs
    # in a spine's code.
    code = "".join(_KIND_CODE[pat.kind] if isinstance(pat, GenPat) else "."
                   for pat in frm)
    offset = next(j for j, pat in enumerate(frm) if isinstance(pat, GenPat))
    return _Matcher(schema_id, direction, frm, to, None, offset,
                    frm[offset].kind, frm[offset].prefix,
                    code[offset:].split(".")[0])


_MATCHERS: dict[tuple[str, str], _Matcher] = {
    (sid, direction): _compile(sid, direction)
    for sid, schema in SCHEMAS.items() if schema.pattern_based
    for direction in ("lr", "rl")
}


# A match of a matcher against a spine: the rewritten spine, the position of
# the first replaced factor, the strip depth, the number of inserted factors
# and the bindings.  The Step, whose instantiation text is built from the
# bindings, is made by _step only for the rewrites a caller keeps.
_Match = tuple[tuple[Factor, ...], int, int, int, dict]


def _segment_rewrites(m: _Matcher, factors: tuple[Factor, ...],
                      code: str) -> Iterator[_Match]:
    """The matches of an anchored matcher against a spine whose kind code
    is ``code``, in increasing position order."""
    frm, j, needle, anchor = m.frm, m.offset, m.needle, m.prefix
    L = len(frm)
    # The needle starts at i + j and the segment must end by the spine's end.
    end = len(factors) - L + j + len(needle)
    p = code.find(needle, j, end)
    while p >= 0:
        f, i = factors[p], p - j
        p = code.find(needle, p + 1, end)
        if not f.prefix.endswith(anchor):
            continue
        s = len(f.prefix) - len(anchor)
        outer = f.prefix[:s]
        segment = factors[i:i + L]
        # Only a segment under one common prefix reaches match_side.
        if s and not all(g.prefix.startswith(outer) for g in segment):
            continue
        bindings = match_side(frm, segment, outer=outer)
        if bindings is None:
            continue
        new_segment = _apply_prefix(build_side(m.to, bindings), outer)
        yield (factors[:i] + tuple(new_segment) + factors[i + L:],
               i, s, len(new_segment), bindings)


def _identity_insertions(m: _Matcher, factors: tuple[Factor, ...],
                         words: list[str]) -> Iterator[_Match]:
    """Insertions of an expansion of the identity at a boundary of the
    spine; ``words`` are its boundary words."""
    pre, var = m.identity_word
    for i, word in enumerate(words):
        for s in range(len(word) + 1):
            rest = word[s:]
            if not rest.startswith(pre):
                continue
            bindings = {var: rest[len(pre):]}
            new_segment = _apply_prefix(build_side(m.to, bindings), word[:s])
            yield (factors[:i] + tuple(new_segment) + factors[i:],
                   i, s, len(new_segment), bindings)


def _matches(matchers: tuple[_Matcher, ...], src: str,
             factors: tuple[Factor, ...],
             ) -> Iterator[tuple[_Matcher, _Match]]:
    """Every match of the matchers, in order, against one spine."""
    code = _spine_code(factors)
    words = None
    for m in matchers:
        if m.frm:
            if m.needle in code:
                for match in _segment_rewrites(m, factors, code):
                    yield m, match
        else:
            if words is None:
                words = _boundary_words(src, factors)
            for match in _identity_insertions(m, factors, words):
                yield m, match


def _step(m: _Matcher, position: int, strip: int, inserted: int,
          bindings: dict) -> Step:
    return Step(m.schema_id, m.direction, position, strip, len(m.frm),
                inserted, _describe_bindings(bindings))


def rewrites(theory: Theory, src: str, factors: tuple[Factor, ...],
             ) -> Iterator[tuple[tuple[Factor, ...], Step]]:
    """All one-step rewrites of a spine by the theory's schemas, in both
    directions."""
    for m, (new_factors, *match) in _matches(_tables(theory).search, src,
                                             factors):
        yield new_factors, _step(m, *match)


# ---------------------------------------------------------------------------
# Directed normalization (strategy used by the prover and the rewrite-based
# normal forms)

# Schemas that strictly shrink the factor count, oriented that way.
_SHRINKERS = {
    "beta_bb": "lr", "beta_bd": "lr", "beta_dd": "lr", "beta_db": "lr",
    "eta_bb": "lr", "eta_dd": "lr",
    "beta_sigma_bb": "lr", "beta_sigma_dd": "lr",
    "eta_sigma_bb": "lr", "eta_sigma_db": "lr",
    "eta_sigma_bd": "lr", "eta_sigma_dd": "lr",
    "invol_chi_bb": "lr", "invol_chi_dd": "lr",
    "chi_inv_db": "lr", "chi_inv_bd": "lr",
    "chi_delta_bb": "lr", "chi_delta_dd": "lr",
    "eps_chi_bb": "lr", "eps_chi_dd": "lr",
    "eps_box_chi_db": "lr", "eps_dia_chi_db": "lr",
    "eps_box_chi_bd": "rl", "eps_dia_chi_bd": "rl",
    "delta_chi_bb": "rl", "delta_chi_dd": "rl",
    "delta_bb_chi_db": "rl", "delta_dd_chi_db": "rl",
    "delta_bb_chi_bd": "lr", "delta_dd_chi_bd": "lr",
}

# Stage-fixing same-size rules.  The associativity family is oriented toward
# the shallow-prefix form on the comultiplication side and toward the deep
# form on its mirror, matching the oriented slide family.
_STAGE_FIXERS = {
    "zigzag_n_b": "lr", "zigzag_n_d": "lr",
    "zigzag_i_b": "lr", "zigzag_i_d": "lr",
    "zigzag_n_b_s": "lr", "zigzag_n_d_s": "lr",
    "zigzag_i_b_s": "lr", "zigzag_i_d_s": "lr",
    "assoc_delta_bb": "lr", "assoc_delta_bd": "lr",
    "assoc_delta_dd": "lr", "assoc_delta_db": "lr",
    "assoc_sigma_bb": "lr", "assoc_sigma_db": "lr",
    "assoc_sigma_dd": "lr", "assoc_sigma_bd": "lr",
}

# In registry order; the order is the one the sort tries them in, so it is a
# tuple, not a set whose order would follow the hash seed.
_NATURALITIES = (
    "nat_eps_box", "nat_eps_dia", "nat_delta_bb", "nat_delta_bd",
    "nat_delta_dd", "nat_delta_db", "nat_chi_bb", "nat_chi_dd",
    "nat_chi_db", "nat_chi_bd", "nat_sigma_bb", "nat_sigma_db",
    "nat_sigma_bd", "nat_sigma_dd",
)


# Generators whose target word is longer than their source word, and those
# (the permutations) that keep its length.
_EXPANDING = {kind for kind, (src_pre, tgt_pre) in GENERATORS.items()
              if len(tgt_pre) > len(src_pre)}
_NEUTRAL = {kind for kind, (src_pre, tgt_pre) in GENERATORS.items()
            if len(tgt_pre) == len(src_pre)}


def _sort_key(factor: Factor) -> tuple[int, int]:
    # Within a stage, contracting generators apply at the largest position
    # first and expanding ones at the smallest (the two halves of the
    # oriented slide family); permutation generators are left in place.
    if factor.kind in _NEUTRAL:
        return (0, 0)
    if factor.kind in _EXPANDING:
        return (-len(factor.index), len(factor.prefix))
    return (len(factor.index), -len(factor.prefix))


class _Tables(NamedTuple):
    """A theory's matchers, compiled once.

    ``oriented``: the shrinkers and stage-fixers in priority order.
    ``naturalities``: per (inner kind, outer kind) of an adjacent pair, the
    naturality matchers whose anchor kind fits the pair, in the order the
    sort tries them.  ``stages``: the stage number of each generator kind
    (lower stages apply earlier, more to the right of the composite, in the
    staged normal forms).  ``search``: every matcher of the theory's
    equations, both directions, in the order the proof search tries them.
    """
    oriented: tuple[_Matcher, ...]
    naturalities: dict[tuple[str, str], tuple[_Matcher, ...]]
    stages: dict
    search: tuple[_Matcher, ...]


_TABLES: dict[Theory, _Tables] = {}


def _tables(theory: Theory) -> _Tables:
    tables = _TABLES.get(theory)
    if tables is None:
        available = set(theory.equations)
        oriented = tuple(_MATCHERS[sid, d] for table in (_SHRINKERS, _STAGE_FIXERS)
                         for sid, d in table.items() if sid in available)
        naturalities: dict[tuple[str, str], tuple[_Matcher, ...]] = {}
        for m in (_MATCHERS[sid, d] for sid in _NATURALITIES
                  if sid in available for d in ("lr", "rl")):
            # A naturality side is one generator and one inner arrow, which
            # fits a factor of any kind.
            for kind in GENERATORS:
                pair = (m.kind, kind) if m.offset == 0 else (kind, m.kind)
                naturalities[pair] = naturalities.get(pair, ()) + (m,)
        stages = STAGE_NUMBERS.get(
            theory.base.id if theory.quotient else theory.id, {})
        search = tuple(_MATCHERS[sid, d] for sid in theory.equations
                       for d in ("lr", "rl") if (sid, d) in _MATCHERS)
        tables = _TABLES[theory] = _Tables(oriented, naturalities, stages,
                                           search)
    return tables


_MAX_STEPS = 400


def directed_normalize(theory: "Theory | str", src: str,
                       factors: tuple[Factor, ...],
                       ) -> tuple[tuple[Factor, ...], list[Step]]:
    """Greedy oriented rewriting: contract, fix stage order, sort stages.

    Terminates by a step cap and a seen-state set; the result is a sound
    rewrite of the input (every step is an equation of the theory) but is
    canonical only for the base single-generator theories.
    """
    oriented, naturalities, stage, _ = _tables(get_theory(theory))
    steps: list[Step] = []
    seen = {factors}
    current = factors
    for _ in range(_MAX_STEPS):
        code = _spine_code(current)
        step = None
        for m in oriented:
            if m.needle in code:
                found = next(_segment_rewrites(m, current, code), None)
                if found is not None and found[0] not in seen:
                    current, step = found[0], _step(m, *found[1:])
                    break
        if step is not None:
            steps.append(step)
            seen.add(current)
            continue
        # Adjacent naturality sort: move earlier-stage factors right.
        changed = False
        for i in range(len(current) - 1):
            inner, outer = current[i], current[i + 1]
            si, so = stage.get(inner.kind, 0), stage.get(outer.kind, 0)
            if si > so or (si == so and _sort_key(inner) <= _sort_key(outer)):
                pair = current[i:i + 2]
                wanted = None
                for m in naturalities.get((inner.kind, outer.kind), ()):
                    for new_pair, position, strip, inserted, _ in \
                            _segment_rewrites(m, pair, code[i:i + 2]):
                        ni, no = new_pair
                        nsi, nso = stage.get(ni.kind, 0), stage.get(no.kind, 0)
                        if nsi > nso:
                            continue
                        if nsi == nso and not (_sort_key(ni) > _sort_key(no)):
                            continue
                        wanted = (new_pair, m, position, strip, inserted)
                        break
                    if wanted:
                        break
                if wanted:
                    new_pair, m, position, strip, inserted = wanted
                    candidate = current[:i] + new_pair + current[i + 2:]
                    if candidate not in seen:
                        current = candidate
                        steps.append(Step(m.schema_id, m.direction,
                                          i + position, strip, len(m.frm),
                                          inserted))
                        seen.add(current)
                        changed = True
                        break
        if not changed:
            break
    return current, steps


# ---------------------------------------------------------------------------
# Normal forms


_REWRITE_NF = {"t_box", "t_dia", "k4_box", "k4_dia", "k4_boxdia"}


def normalize(theory: "Theory | str", term: ArrowTerm) -> ArrowTerm:
    """The theory's staged normal form of a term.

    For the base single-generator theories this is the irreducible developed
    form under the oriented slide family; for the staged theories it is
    produced by diagram-directed synthesis, hence canonical on each
    equality class.
    """
    theory = get_theory(theory)
    src, tgt, factors = typed_factors(term, theory)
    if theory.id in _REWRITE_NF:
        nf, _steps = directed_normalize(theory, src, tuple(factors))
        return factors_to_term(src, list(nf))
    if theory.id in SYNTHESIS_THEORIES:
        return synthesize(theory, _image(theory, STD, src, tgt, factors))
    raise TermError(f"theory {theory.id} has no declared normal form")


# ---------------------------------------------------------------------------
# Bounded bidirectional proof search


@dataclass(frozen=True)
class ProofResult:
    """The verdict of a bounded proof search and why it stopped.

    ``reason`` is ``proved`` (``steps`` is the derivation), ``refuted`` (the
    two terms have different diagrams, so they are not equal), or, for an
    unknown result, which never means inequality: ``depth`` (the step
    budget ran out while states were left to expand), ``size_cap`` (no
    state was left, and the size cap dropped at least one rewrite) or
    ``exhausted`` (no state was left and the cap dropped nothing).
    """
    reason: str
    steps: tuple[Step, ...] = ()

    @property
    def proved(self) -> bool:
        return self.reason == "proved"

    @property
    def refuted(self) -> bool:
        return self.reason == "refuted"

    def __bool__(self) -> bool:
        return self.proved

    def to_json(self) -> str:
        if not self.proved:
            return json.dumps(None)
        return derivation_to_json(list(self.steps))


# A node of a search path: (parent node, link, length).  A root has no
# parent and its link is the tuple of steps that reached it; any other
# node's link is the matcher and the match of its last step.
_Node = tuple


def _path_steps(node: _Node) -> list[Step]:
    """The steps from a search root to a path node."""
    steps = []
    while node[0] is not None:
        node, (m, match), _ = node
        steps.append(_step(m, *match[1:]))
    return list(node[1]) + steps[::-1]


class SoundnessViolation(TermError):
    """A rewrite step produced an ill-typed term or changed the
    interpretation; the schema registry or the matcher is broken.  The
    offending factor list is kept as ``candidate``."""

    def __init__(self, message: str, candidate: tuple[Factor, ...] = ()):
        super().__init__(message)
        self.candidate = candidate


def prove_equal_bounded(theory: "Theory | str", f: ArrowTerm, g: ArrowTerm,
                        depth: int = DEFAULT_DEPTH,
                        size_slack: int = 2) -> ProofResult:
    """Search for an equational derivation joining f and g.

    Bidirectional breadth-bounded search over single schema applications (in
    both directions, at any position, under any operator prefix), seeded by
    the greedy directed strategy.  The total number of schema steps in a
    returned derivation is at most the depth budget.  A falsy result is
    ``refuted`` when the two diagrams differ, which proves the terms unequal;
    otherwise it is unknown, which never means inequality.
    """
    theory = get_theory(theory)
    for name, bound in (("depth", depth), ("size_slack", size_slack)):
        if bound < 0:
            raise ValueError(f"{name} must be non-negative, got {bound}")
    if theory.quotient is not None:
        raise TermError("proof search applies to the unquotiented theories")
    src, ftgt, sf = typed_factors(f, theory)
    gsrc, gtgt, sg = typed_factors(g, theory)
    if (src, ftgt) != (gsrc, gtgt):
        raise TermError("proof search needs terms of the same type")
    sf, sg = tuple(sf), tuple(sg)
    if sf == sg:
        return ProofResult("proved")
    image = fold(theory.target, STD, src, list(sf))
    if not image.same_as(fold(theory.target, STD, src, list(sg))):
        return ProofResult("refuted")

    # Every state the search reaches is checked as typed_factors and interp
    # check a term, on its factors: its words and its composition chain
    # from src to the common target, admission, the index constraint, and
    # then its image.  The two inputs passed these checks above.
    checked = {sf, sg}

    def guard(candidate: tuple[Factor, ...]) -> None:
        if candidate in checked:
            return
        try:
            tgt = chain_target(src, candidate)
            check_admitted(theory, candidate)
        except TermError as exc:
            raise SoundnessViolation(
                f"rewriting produced an ill-typed term at {candidate}: {exc}",
                candidate) from exc
        if tgt != ftgt or not fold(theory.target, STD, src,
                                   list(candidate)).same_as(image):
            raise SoundnessViolation(
                f"rewriting broke the interpretation at {candidate}",
                candidate)
        checked.add(candidate)

    def splice(forward: _Node, backward: _Node) -> Optional[ProofResult]:
        if forward[2] + backward[2] > depth:
            return None
        derivation = _path_steps(forward) + [
            s.reversed() for s in reversed(_path_steps(backward))]
        return ProofResult("proved", tuple(derivation))

    # Greedy directed meet first.
    nf_f, steps_f = directed_normalize(theory, src, sf)
    nf_g, steps_g = directed_normalize(theory, src, sg)
    guard(nf_f)
    guard(nf_g)
    greedy_f = (None, tuple(steps_f), len(steps_f))
    greedy_g = (None, tuple(steps_g), len(steps_g))
    if nf_f == nf_g:
        found = splice(greedy_f, greedy_g)
        if found:
            return found

    # Bidirectional breadth-first search with a size cap.  States record the
    # side they were reached from and their path node from that side's
    # root; steps are made only for the derivation returned.  ``dropped``
    # counts the rewrites the cap cut off, which tells why a search that
    # ran out of states stopped.
    max_size = max(len(sf), len(sg)) + size_slack
    search = _tables(theory).search
    sides: dict[tuple[Factor, ...], tuple[str, _Node]] = {}
    frontiers = {"f": [], "g": []}
    dropped = 0

    def admit(tag: str, state: tuple[Factor, ...],
              node: _Node) -> Optional[ProofResult]:
        if state in sides:
            known_tag, known = sides[state]
            if known_tag == tag:
                return None
            if tag == "f":
                return splice(node, known)
            return splice(known, node)
        sides[state] = (tag, node)
        frontiers[tag].append(state)
        return None

    for tag, state, node in (("f", sf, (None, (), 0)), ("g", sg, (None, (), 0)),
                             ("f", nf_f, greedy_f), ("g", nf_g, greedy_g)):
        if len(state) > max_size:
            dropped += 1
            continue
        found = admit(tag, state, node)
        if found:
            return found

    spent = {"f": 0, "g": 0}
    while spent["f"] + spent["g"] < depth and (frontiers["f"] or frontiers["g"]):
        tag = "f" if (frontiers["f"] and spent["f"] <= spent["g"]) or not frontiers["g"] else "g"
        spent[tag] += 1
        expanding, frontiers[tag] = frontiers[tag], []
        for state in expanding:
            base = sides[state][1]
            for m, match in _matches(search, src, state):
                new_factors = match[0]
                known = sides.get(new_factors)
                if known is None:
                    if len(new_factors) > max_size:
                        dropped += 1
                        continue
                    guard(new_factors)
                elif known[0] == tag:
                    continue
                # Every state in sides has passed the guard already.
                found = admit(tag, new_factors, (base, (m, match), base[2] + 1))
                if found:
                    return found
    if frontiers["f"] or frontiers["g"]:
        return ProofResult("depth")
    return ProofResult("size_cap" if dropped else "exhausted")


# ---------------------------------------------------------------------------
# Confluence of the oriented slide family


@dataclass
class ConfluenceReport:
    theory_id: str
    size_bound: int
    terms_checked: int
    divergences: list[tuple]
    normal_forms: dict

    @property
    def confluent(self) -> bool:
        return not self.divergences


GENERATORS_LETTER = {
    "eps_box": "b", "delta_bb": "b", "chi_bb": "b",
    "eps_dia": "d", "delta_dd": "d", "chi_dd": "d",
}


def confluence_check(theory: "Theory | str", size_bound: int,
                     src_words: Optional[list[str]] = None) -> ConfluenceReport:
    """Exhaustively verify that every maximal oriented-rewrite sequence from
    every term up to the size bound ends in one and the same normal form."""
    theory = get_theory(theory)
    if src_words is None:
        letters = sorted({GENERATORS_LETTER[k] for k in theory.generators
                          if k in GENERATORS_LETTER})
        letter = letters[0] if letters else "b"
        src_words = [letter * k for k in range(size_bound + 2)]
    # The naturalities left to right, then the shrinkers in their directions.
    keys = [(sid, "lr") for sid in theory.equations if sid in _NATURALITIES]
    keys += [(sid, d) for sid, d in _SHRINKERS.items() if sid in theory.equations]
    oriented = tuple(_MATCHERS[key] for key in keys if key in _MATCHERS)
    cache: dict = {}

    def all_nfs(state: tuple[str, tuple[Factor, ...]]) -> frozenset:
        if state in cache:
            return cache[state]
        src, factors = state
        reducts = [(src, nf) for _, (nf, *_) in _matches(oriented, src, factors)]
        if not reducts:
            result = frozenset([state])
        else:
            result = frozenset().union(*(all_nfs(r) for r in set(reducts)))
        cache[state] = result
        return result

    divergences = []
    normal_forms: dict = {}
    checked = 0
    for src in src_words:
        for factors in enumerate_factor_terms(theory, src, size_bound):
            checked += 1
            state = (src, tuple(factors))
            nfs = all_nfs(state)
            if len(nfs) != 1:
                # Factors have no order; sort the normal forms by their fields.
                divergences.append((state, tuple(sorted(nfs, key=lambda nf: (
                    nf[0], [(f.prefix, f.kind, f.index) for f in nf[1]])))))
            else:
                nf = next(iter(nfs))
                tgt = _boundary_words(*state)[-1]
                normal_forms.setdefault((src, tgt), set()).add(nf[1])
    return ConfluenceReport(theory.id, size_bound, checked, divergences,
                            normal_forms)

