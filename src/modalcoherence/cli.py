"""Batch command-line surface.

Exit codes: 0 success (for ``eq``: the terms are equal; for ``prove``: a
derivation was found), 1 domain verdict "no" (``eq`` and ``prove``:
the terms are not equal; a failed check suite), 2 type mismatch for ``eq``,
3 unknown (``prove``: no derivation within the budget, although the
diagrams are equal), 64 usage error, 65 domain error (bad input, ill-typed
term, and so on), 70 internal error (a proof-search guard failure or any
other unexpected exception; never a verdict).
"""

from __future__ import annotations

import argparse
import sys
from random import Random

from . import diagram as dg
from .decide import (
    SYNTHESIS_THEORIES,
    HomQuery,
    enum_hom,
    mirror_term,
    random_term,
    synthesize,
)
from .interp import (
    VARIANTS,
    admitted_variants,
    check_soundness,
    decide_equal,
    interp,
)
from .quotient import skeleton
from .rewrite import (
    DEFAULT_DEPTH,
    SoundnessViolation,
    confluence_check,
    normalize,
    prove_equal_bounded,
)
from .simplicial import (
    embed_function,
    embed_injection,
    embed_monotone,
    embed_surjection,
    finmap,
)
from .terms import TermError, parse_term, term_to_str, term_type, word_to_str
from .theories import REGISTRY, get_theory, typecheck

UNKNOWN = 3
USAGE_ERROR = 64
DOMAIN_ERROR = 65
INTERNAL_ERROR = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_mod(text: str) -> str:
    if text == "e":
        return ""
    if text and all(c in "bd" for c in text):
        return text
    raise TermError(f"bad modality {text!r} (use 'e' or letters b/d)")


def _print_type(src: str, tgt: str) -> None:
    print(f"{word_to_str(src)} |- {word_to_str(tgt)}")


def build_parser() -> _Parser:
    parser = _Parser(prog="modalcoherence",
                     description="modal deduction diagrams, normal forms, "
                                 "and equality decisions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and reprint a term")
    p.add_argument("term")

    p = sub.add_parser("type", help="type a term in a theory")
    p.add_argument("--theory", required=True, choices=sorted(REGISTRY))
    p.add_argument("term")

    p = sub.add_parser("interp", help="interpret a term as a diagram")
    p.add_argument("--theory", required=True, choices=sorted(REGISTRY))
    p.add_argument("--functor", default="std", choices=VARIANTS)
    p.add_argument("--format", default="ascii", choices=["ascii", "json"])
    p.add_argument("term")

    p = sub.add_parser("eq", help="decide equality of two terms")
    p.add_argument("--theory", required=True, choices=sorted(REGISTRY))
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("nf", help="staged normal form of a term")
    p.add_argument("--theory", required=True, choices=sorted(REGISTRY))
    p.add_argument("term")

    p = sub.add_parser("prove", help="search for an equational derivation")
    p.add_argument("--theory", required=True, choices=sorted(REGISTRY))
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("hom", help="enumerate arrows between two words")
    p.add_argument("--theory", required=True, choices=sorted(REGISTRY))
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="tgt", required=True)
    p.add_argument("--budget", type=int, default=6)

    p = sub.add_parser("embed", help="embed a finite-ordinal function")
    p.add_argument("--kind", required=True,
                   choices=["monotone", "injection", "surjection", "function"])
    p.add_argument("--map", dest="values", required=True,
                   help="comma-separated values, e.g. 0,0,2 (empty = empty map)")
    p.add_argument("--cod", type=int, default=None)

    p = sub.add_parser("mirror", help="transport a term across the mirror")
    p.add_argument("--from", dest="source", required=True,
                   choices=["s5", "fives"])
    p.add_argument("term")

    p = sub.add_parser("skeleton", help="skeleton of a preorder quotient")
    p.add_argument("--theory", required=True, choices=sorted(REGISTRY))

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=["soundness", "confluence", "roundtrip", "counting"])
    p.add_argument("--theory", required=True, choices=sorted(REGISTRY))
    p.add_argument("--bound", type=int, default=None)
    return parser


def _cmd_parse(args) -> int:
    term = parse_term(args.term)
    print(term_to_str(term))
    return 0


def _cmd_type(args) -> int:
    src, tgt = typecheck(parse_term(args.term), args.theory)
    _print_type(src, tgt)
    return 0


def _cmd_interp(args) -> int:
    d = interp(args.theory, parse_term(args.term), args.functor)
    print(dg.to_json(d) if args.format == "json" else dg.render_ascii(d))
    return 0


def _cmd_eq(args) -> int:
    result = decide_equal(args.theory, parse_term(args.left),
                          parse_term(args.right))
    print(result.describe())
    return {"equal": 0, "not_equal": 1, "type_mismatch": 2}[result.verdict]


def _cmd_nf(args) -> int:
    print(term_to_str(normalize(args.theory, parse_term(args.term))))
    return 0


def _cmd_prove(args) -> int:
    result = prove_equal_bounded(args.theory, parse_term(args.left),
                                 parse_term(args.right),
                                 depth=args.depth)
    if result.proved:
        print(f"Proved in {len(result.steps)} steps")
        print(result.to_json())
        return 0
    if result.refuted:
        print("not equal")
        return 1
    print(f"Unknown ({result.reason})")
    return UNKNOWN


def _cmd_hom(args) -> int:
    q = HomQuery(args.theory, _parse_mod(args.src), _parse_mod(args.tgt),
                 args.budget)
    result = enum_hom(q)
    note = "exact" if result.complete else f"bounded search (budget {args.budget})"
    print(f"{len(result.diagrams)} arrow(s) [{note}]")
    for d in result.diagrams:
        print(dg.to_json(d))
        witness = result.witnesses.get(d.key())
        if witness is not None:
            print(f"  witness: {witness}")
    return 0


def _cmd_embed(args) -> int:
    values = [int(v) for v in args.values.split(",") if v.strip() != ""]
    cod = args.cod if args.cod is not None else (max(values) + 1 if values else 0)
    h = finmap(len(values), cod, values)
    builder = {"monotone": embed_monotone, "injection": embed_injection,
               "surjection": embed_surjection, "function": embed_function}
    term = builder[args.kind](h)
    print(term_to_str(term))
    _print_type(*term_type(term))
    return 0


def _cmd_mirror(args) -> int:
    term = mirror_term(parse_term(args.term), source=args.source)
    other = "fives" if args.source == "s5" else "s5"
    typecheck(term, other)
    print(term_to_str(term))
    return 0


def _cmd_skeleton(args) -> int:
    print(skeleton(args.theory).to_json())
    return 0


def _cmd_check(args) -> int:
    theory = get_theory(args.theory)
    if args.bound is not None and args.bound < 0:
        raise ValueError(f"--bound must be non-negative, got {args.bound}")

    def bound(default: int) -> int:
        return default if args.bound is None else args.bound

    if args.suite == "soundness":
        passed = True
        for variant in admitted_variants(theory):
            report = check_soundness(theory, variant, idx_bound=bound(2))
            print(report.describe())
            passed = passed and report.passed
        return 0 if passed else 1
    if args.suite == "confluence":
        report = confluence_check(theory, bound(4))
        print(f"{theory.id}: {report.terms_checked} terms, "
              f"{len(report.divergences)} divergences")
        return 0 if report.confluent else 1
    if args.suite == "roundtrip":
        trials = bound(100)
        rng = Random(0)
        words = ["", "b", "d", "bd", "db", "bdb"]
        for n in range(trials):
            term = random_term(theory, rng.choice(words), rng.randint(0, 5), rng)
            if parse_term(term_to_str(term)) != term:
                print(f"print/parse failed: {term}")
                return 1
            if theory.id in SYNTHESIS_THEORIES:
                image = interp(theory, term)
                if not interp(theory, synthesize(theory, image)).same_as(image):
                    print(f"synthesis roundtrip failed: {term}")
                    return 1
        print(f"{trials} roundtrips ok")
        return 0
    if args.suite == "counting":
        import math

        letter = "d" if "eps_dia" in theory.generators or "delta_dd" in theory.generators else "b"
        ok = True
        for m in range(bound(4) + 1):
            for n in range(bound(4) + 1):
                count = len(enum_hom(HomQuery(theory.id, letter * m, letter * n)))
                if theory.id == "s4_dia":
                    expect = 1 if m == 0 else math.comb(m + n - 1, m)
                elif theory.id == "s4_dia_chi":
                    expect = n ** m if (m or n) else 1
                else:
                    expect = None
                flag = "" if expect is None or count == expect else "  MISMATCH"
                ok = ok and not flag
                print(f"hom({m},{n}) = {count}" +
                      (f" (expected {expect})" if expect is not None else "") + flag)
        return 0 if ok else 1
    raise AssertionError(args.suite)


_COMMANDS = {
    "parse": _cmd_parse, "type": _cmd_type, "interp": _cmd_interp,
    "eq": _cmd_eq, "nf": _cmd_nf, "prove": _cmd_prove, "hom": _cmd_hom,
    "embed": _cmd_embed, "mirror": _cmd_mirror, "skeleton": _cmd_skeleton,
    "check": _cmd_check,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except SoundnessViolation as exc:  # a library fault, not bad input
        error = exc
    except (TermError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except Exception as exc:
        error = exc
    print(f"internal error: {type(error).__name__}: {error}", file=sys.stderr)
    return INTERNAL_ERROR


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
