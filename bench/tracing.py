"""Spans and counters around the library's layer boundaries.

The tracer wraps, from outside ``src/``, the names each module of the
package binds: a function is replaced wherever a module of the package holds
it, in the module that defines it (for calls inside that module and lazy
imports) and in every module that imported it.  It records one span per call
(name, start, end, parent span), keeps the spans in memory and writes them
out at the end.  Functions called more than about 10^5 times a run (pattern
matching, diagram validation) and the rewrite generator are aggregated
instead: a count and summed time per parent span.

A name the library no longer has is skipped, so its metrics read 0.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
from time import perf_counter

# (module, function) pairs that get one span per call.
SPANS = [
    ("terms", "parse_term"),
    ("theories", "typecheck"),
    ("interp", "interp"),
    ("interp", "decide_equal"),
    ("interp", "check_soundness"),
    ("diagram", "rel_compose"),
    ("diagram", "spliteq_compose"),
    ("schemas", "instantiate"),
    ("rewrite", "directed_normalize"),
    ("rewrite", "normalize"),
    ("rewrite", "prove_equal_bounded"),
    ("quotient", "interp_sharp"),
    ("decide", "synthesize"),
    ("decide", "realizable"),
    ("decide", "enum_hom"),
]
MATCH = ("schemas", "match_side")
REWRITES = ("rewrite", "rewrites")
VALIDATED = ("RelDiagram", "SplitEq")

INTERP = "interp.interp"
PROVE = "rewrite.prove_equal_bounded"
ENUM_HOM = "decide.enum_hom"
COMPOSE = ("diagram.rel_compose", "diagram.spliteq_compose")
VALIDATE = "diagram.validate"
QUERY = "bench.query"
# Generator-count tiers of interp calls: small, medium, large.
TIERS = ((16, "small"), (64, "medium"), (float("inf"), "large"))


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "modalcoherence"
                                  or name.startswith("modalcoherence."))]


def generator_count(term) -> int:
    count, stack = 0, [term]
    while stack:
        node = stack.pop()
        name = type(node).__name__
        if name == "Comp":
            stack += (node.outer, node.inner)
        elif name == "App":
            stack.append(node.body)
        elif name == "Gen":
            count += 1
    return count


class Tracer:
    def __init__(self):
        self.spans: list = []            # (id, name, start, end, parent)
        self.aggregates: dict = {}       # (name, parent) -> [count, seconds]
        self.stack = [0]
        self.names = {0: "root"}
        self.next_id = 1
        self.active: dict = {}           # name -> open spans of that name
        self.interp_calls: list = []     # (span id, term, under prove, outermost)
        self.match_hits = 0
        self.expansions = 0              # rewrites() calls with no filter
        self._patches: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, active, names = (self.spans, self.stack, self.active,
                                       self.names)

        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            names[sid] = name
            stack.append(sid)
            active[name] = active.get(name, 0) + 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[name] -= 1
                stack.pop()
                spans.append((sid, name, start, end, parent))

        return wrapper

    def _interp(self, fn):
        inner = self._span(INTERP, fn)
        active = self.active

        def wrapper(*args, **kwargs):
            term = args[1] if len(args) > 1 else kwargs.get("term")
            outermost = not active.get(INTERP)
            guard = active.get(PROVE, 0) > 0
            sid = self.next_id
            try:
                return inner(*args, **kwargs)
            finally:
                self.interp_calls.append((sid, term, guard, outermost))

        return wrapper

    def _aggregate(self, name: str, fn, hits: bool = False):
        aggregates, stack = self.aggregates, self.stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            slot = aggregates.get((name, stack[-1]))
            if slot is None:
                slot = aggregates[(name, stack[-1])] = [0, 0.0]
            slot[0] += 1
            slot[1] += elapsed
            if hits and result is not None:
                self.match_hits += 1
            return result

        return wrapper

    def _rewrites(self, fn):
        def wrapper(*args, **kwargs):
            schema_ids = kwargs.get("schema_ids",
                                    args[4] if len(args) > 4 else None)
            if schema_ids is None:
                self.expansions += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in _package_modules()}
        for mod_name, fn_name in SPANS:
            original = getattr(modules.get(mod_name), fn_name, None)
            if original is None:
                continue
            name = f"{mod_name}.{fn_name}"
            wrapper = (self._interp(original) if name == INTERP
                       else self._span(name, original))
            self._replace_everywhere(original, wrapper)
        original = getattr(modules.get(MATCH[0]), MATCH[1], None)
        if original is not None:
            self._replace_everywhere(
                original, self._aggregate("schemas.match_side", original, True))
        original = getattr(modules.get(REWRITES[0]), REWRITES[1], None)
        if original is not None:
            self._replace_everywhere(original, self._rewrites(original))
        diagram = modules.get("diagram")
        for cls_name in VALIDATED:
            cls = getattr(diagram, cls_name, None)
            original = getattr(cls, "__post_init__", None)
            if original is not None:
                self._patches.append((cls, "__post_init__", original))
                cls.__post_init__ = self._aggregate(VALIDATE, original)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def query(self, fn):
        """Run one benchmark query under its own root span."""
        return self._span(QUERY, fn)()

    # -- results ----------------------------------------------------------

    def write(self, path) -> None:
        """Spans, then aggregates, as JSON lines."""
        with gzip.open(path, "wt") as out:
            for sid, name, start, end, parent in self.spans:
                out.write(json.dumps([sid, name, start, end, parent]) + "\n")
            for (name, parent), (count, seconds) in self.aggregates.items():
                out.write(json.dumps(["aggregate", name, parent, count,
                                      seconds]) + "\n")

    def metrics(self, queries: list) -> dict:
        """Per-layer metrics of a traced pass.  ``queries`` holds
        (op, answer, expansions) for every query of the pass."""
        covered: dict = {}
        for sid, name, start, end, parent in self.spans:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
        for (name, parent), (count, seconds) in self.aggregates.items():
            covered[parent] = covered.get(parent, 0.0) + seconds
        calls: dict = {}
        self_s: dict = {}
        duration: dict = {}
        for sid, name, start, end, parent in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered.get(sid, 0.0)
            duration[sid] = end - start

        def agg(name, parent_name=None):
            count = seconds = 0
            for (n, parent), (c, s) in self.aggregates.items():
                if n == name and (parent_name is None
                                  or self.names.get(parent) == parent_name):
                    count += c
                    seconds += s
            return count, seconds

        def ms(name):
            return 1e3 * self_s.get(name, 0.0)

        tiers = {label: [] for _, label in TIERS}
        guard_calls, guard_s = 0, 0.0
        for sid, term, guard, outermost in self.interp_calls:
            if sid not in duration:
                continue
            size = generator_count(term)
            label = next(lab for bound, lab in TIERS if size <= bound)
            tiers[label].append(duration[sid])
            if guard and outermost:
                guard_calls += 1
                guard_s += duration[sid]

        def median_ms(values):
            return 1e3 * statistics.median(values) if values else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        match_calls, _ = agg("schemas.match_side")
        validations, _ = agg(VALIDATE)
        built_in_hom, _ = agg(VALIDATE, ENUM_HOM)
        composed_in_hom = sum(1 for _, name, _, _, parent in self.spans
                              if name in COMPOSE
                              and self.names.get(parent) == ENUM_HOM)
        candidates = built_in_hom + composed_in_hom
        arrows = sum(len(answer.diagrams) for op, answer, _ in queries
                     if op == "hom" and answer is not None)
        proved = [exp for op, answer, exp in queries
                  if op == "prove" and answer is not None and answer.proved]
        n = len(queries)
        return {
            "terms.parse_ms": (ms("terms.parse_term"), "ms"),
            "theories.typecheck_calls": (calls.get("theories.typecheck", 0), "count"),
            "theories.typecheck_ms": (ms("theories.typecheck"), "ms"),
            "interp.calls": (calls.get(INTERP, 0), "count"),
            "interp.self_ms": (ms(INTERP), "ms"),
            "interp.ms.small": (median_ms(tiers["small"]), "ms"),
            "interp.ms.medium": (median_ms(tiers["medium"]), "ms"),
            "interp.ms.large": (median_ms(tiers["large"]), "ms"),
            "interp.guard_calls": (guard_calls, "count"),
            "interp.guard_ms": (1e3 * guard_s, "ms"),
            "interp.check_soundness_ms": (ms("interp.check_soundness"), "ms"),
            "diagram.compose_calls": (sum(calls.get(c, 0) for c in COMPOSE), "count"),
            "diagram.compose_ms": (sum(ms(c) for c in COMPOSE), "ms"),
            "diagram.validations": (validations, "count"),
            "schemas.match_calls": (match_calls, "count"),
            "schemas.match_hit_ratio": (ratio(self.match_hits, match_calls), "ratio"),
            "schemas.instantiate_calls": (calls.get("schemas.instantiate", 0), "count"),
            "schemas.instantiate_ms": (ms("schemas.instantiate"), "ms"),
            "rewrite.normalize_calls": (calls.get("rewrite.directed_normalize", 0), "count"),
            "rewrite.normalize_ms": (ms("rewrite.directed_normalize"), "ms"),
            "rewrite.normalize_calls_per_query": (
                ratio(calls.get("rewrite.directed_normalize", 0), n), "count"),
            "rewrite.search_expansions": (self.expansions, "count"),
            "rewrite.greedy_join_share": (
                ratio(sum(1 for e in proved if e == 0), len(proved)), "ratio"),
            "rewrite.prove_ms": (ms(PROVE), "ms"),
            "quotient.interp_sharp_calls": (calls.get("quotient.interp_sharp", 0), "count"),
            "quotient.interp_sharp_ms": (ms("quotient.interp_sharp"), "ms"),
            "decide.synthesize_calls": (calls.get("decide.synthesize", 0), "count"),
            "decide.synthesize_ms": (ms("decide.synthesize"), "ms"),
            "decide.realizable_calls": (calls.get("decide.realizable", 0), "count"),
            "decide.enum_hom_ms": (ms(ENUM_HOM), "ms"),
            "decide.hom_candidates": (candidates, "count"),
            "decide.hom_accept_ratio": (ratio(arrows, candidates), "ratio"),
            "trace.spans": (len(self.spans), "count"),
        }
