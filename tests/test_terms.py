"""Term language: parsing, printing, typing, duality, context append."""

import copy
import pickle
import random
import re

import pytest

import parse_reference

from modalcoherence.terms import (
    App,
    Comp,
    Gen,
    Id,
    ParseError,
    TermError,
    TypingError,
    append_context,
    check_word,
    dualize,
    parse_term,
    swap_word,
    term_factors,
    term_size,
    term_to_str,
    term_type,
)
from modalcoherence.theories import raw_splus, typecheck, TheoryError
from modalcoherence.decide import mirror_term, random_term
from modalcoherence.interp import decide_equal, interp
from modalcoherence.rewrite import normalize, prove_equal_bounded
from modalcoherence import diagram as dg


def test_parse_examples():
    assert parse_term("eps_box{e}") == Gen("eps_box", "")
    assert term_type(parse_term("eps_box{e}")) == ("b", "")
    assert parse_term("dia(eps_box{b})") == App("d", Gen("eps_box", "b"))
    assert term_type(parse_term("dia(eps_box{b})")) == ("dbb", "db")
    # The grammar accepts ill-typed composites; typing rejects them.
    t = parse_term("eps_box{e} . eps_dia{e}")
    assert isinstance(t, Comp)
    with pytest.raises(TypingError):
        term_type(t)


def test_parse_is_right_associative():
    t = parse_term("eps_box{e} . eps_box{b} . delta_bb{e}")
    assert t == Comp(Gen("eps_box", ""),
                     Comp(Gen("eps_box", "b"), Gen("delta_bb", "")))


def test_parse_errors_carry_position():
    cases = [
        ("eps_box{e} . ", "unexpected end of input", 13),
        ("nosuch{e}", "unknown generator name 'nosuch'", 0),
        ("id{xyz}", "bad modality 'xyz' (use 'e' or letters b/d)", 2),
        ("box(eps_box{e}", "unexpected end of input", 14),
        ("box eps_box{e}", "expected '(' after box", 4),
        ("eps_box{e} eps_box{e}", "trailing input 'eps_box'", 11),
        ("eps_box{e})", "trailing input ')'", 10),
        ("", "unexpected end of input", 0),
        ("eps_box{e", "unclosed '{'", 7),
    ]
    for text, message, position in cases:
        with pytest.raises(ParseError) as caught:
            parse_term(text)
        assert str(caught.value) == f"{message} (at position {position})"
        assert caught.value.position == position


_FUZZ_SPACE = ["", " ", " ", "  ", "\t", "\n", "\u3000"]
_FUZZ_EDIT = "()().. {}bdbde_xoia2\u00b2$ \t"
_FUZZ_TOKEN = re.compile(r"\w+\{[^}]*\}|box\(|dia\(|[().]")


def _fuzz_texts(rng):
    """A printed random term with whitespace between its tokens and extra
    parentheses around runs of leaves, before and after 1-3 character
    edits."""
    term = random_term(rng.choice(["s5", "s4_boxdia_chi", "s42_iso"]),
                       rng.choice(["", "b", "d", "bd", "db"]),
                       rng.randint(0, 5), rng)
    tokens = _FUZZ_TOKEN.findall(term_to_str(term))
    leaves = [i for i, token in enumerate(tokens) if token.endswith("}")]
    for _ in range(rng.randint(0, 2)):
        first = rng.choice(leaves)
        last = rng.choice([i for i in leaves if i >= first])
        tokens[first] = "(" + tokens[first]
        tokens[last] += ")"
    clean = rng.choice(_FUZZ_SPACE) + "".join(
        token + rng.choice(_FUZZ_SPACE) for token in tokens)
    text = clean
    for _ in range(rng.randint(1, 3)):
        at, c = rng.randrange(len(text) + 1), rng.choice(_FUZZ_EDIT)
        text = rng.choice([text[:at] + c + text[at:],
                           text[:at] + text[at + 1:],
                           text[:at] + c + text[at + 1:]])
    return clean, text


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as error:
        return error


def _factors_outcome(term):
    try:
        return term_factors(term)
    except TypingError as error:
        return "TypingError", str(error)


def test_parser_agrees_with_reference_on_fuzzed_text():
    # Both parsers give the same tree, or both reject the text with a
    # position inside it; which error they report first may differ, since
    # the reference tokenizes the whole text before it parses.  The spine a
    # parsed term carries is the one a walk of the reference tree finds, or
    # both raise the same TypingError; it is read before the tree is built.
    rng = random.Random(2024)
    accepted = mismatched = 0
    for _ in range(20_000):
        clean, edited = _fuzz_texts(rng)
        reference = parse_reference.parse_term(clean)
        ours = parse_term(clean)
        assert _factors_outcome(ours) == _factors_outcome(reference), clean
        assert ours == reference, clean
        ours = _parse_outcome(parse_term, edited)
        theirs = _parse_outcome(parse_reference.parse_term, edited)
        if isinstance(ours, ParseError) or isinstance(theirs, ParseError):
            assert isinstance(ours, ParseError), edited
            assert isinstance(theirs, ParseError), edited
            assert 0 <= ours.position <= len(edited), edited
        else:
            spine = _factors_outcome(ours)
            assert spine == _factors_outcome(theirs), edited
            mismatched += spine[0] == "TypingError"
            assert ours == theirs, edited
            accepted += 1
    assert accepted >= 500 and mismatched >= 50


# A typed chain at top level, with a parenthesized composite and an
# identity in it, equal in s5 to delta_bb{e}.
_CHAIN = "box(eps_box{b}) . (box(delta_bb{e}) . id{bb}) . delta_bb{e}"


def _unbuilt(term):
    return type(term) is Comp and not {"outer", "inner"} & vars(term).keys()


def test_parsed_chain_reads_like_the_eager_tree():
    eager = parse_reference.parse_term(_CHAIN)
    assert _unbuilt(parse_term(_CHAIN))
    assert parse_term(_CHAIN) == eager and eager == parse_term(_CHAIN)
    assert hash(parse_term(_CHAIN)) == hash(eager)
    assert repr(parse_term(_CHAIN)) == repr(eager)
    assert str(parse_term(_CHAIN)) == str(eager) == _CHAIN
    built = parse_term(_CHAIN)
    built.outer
    for term in (parse_term(_CHAIN), built):
        for copied in (pickle.loads(pickle.dumps(term)), copy.deepcopy(term)):
            assert type(copied) is Comp and copied == eager
            assert term_factors(copied) == term_factors(eager)


def test_parsed_chain_builds_one_tree_whichever_part_is_read_first():
    eager = parse_reference.parse_term(_CHAIN)
    inner_first, outer_first = parse_term(_CHAIN), parse_term(_CHAIN)
    inner, outer = inner_first.inner, outer_first.outer
    assert inner == eager.inner and outer == eager.outer
    assert (inner_first.outer, outer_first.inner) == (eager.outer, eager.inner)
    assert inner_first.inner is inner and outer_first.outer is outer
    # A second build writes an equal tree over the first.
    assert Comp.outer.__get__(inner_first) == eager.outer
    assert inner_first.inner is not inner and inner_first.inner == inner
    assert inner_first == eager and term_factors(inner_first) == \
        term_factors(eager)


def test_parsed_chain_rejects_unknown_attributes_unbuilt():
    term = parse_term(_CHAIN)
    with pytest.raises(AttributeError, match="nosuch"):
        term.nosuch
    assert not hasattr(term, "_nosuch") and _unbuilt(term)
    with pytest.raises(AttributeError, match="nosuch"):
        parse_reference.parse_term(_CHAIN).nosuch
    # A composite that holds neither its parts nor a text has no parts.
    with pytest.raises(AttributeError, match="outer"):
        Comp.__new__(Comp).outer


def test_engines_read_the_parsed_spine_without_building_the_tree():
    f, g = parse_term(_CHAIN), parse_term("id{bb} . delta_bb{e}")
    assert decide_equal("s5", f, g)
    assert typecheck(f, "s5") == ("b", "bb")
    assert prove_equal_bounded("s5", f, g)
    normal = normalize("s5", f)
    assert _unbuilt(f) and _unbuilt(g)
    # Normal forms are eager trees of the four node classes.
    assert normal == parse_term("delta_bb{e}") and type(normal) is Gen
    chain = normalize("s5", parse_term("delta_bb{b} . " + _CHAIN))
    assert type(chain) is Comp and {"outer", "inner"} <= vars(chain).keys()


@pytest.mark.parametrize("text", [
    "id{e}", "id{bd}", "eps_box{e}", "box(dia(id{e}))",
    "(eps_box{e} . eps_box{b}) . delta_bb{e}",
    "eps_box{e} . (eps_box{b} . delta_bb{e})",
    "box(delta_db{e}) . delta_bd{b}",
])
def test_print_parse_round_trip(text):
    t = parse_term(text)
    assert parse_term(term_to_str(t)) == t


def test_print_parse_round_trip_random():
    rng = random.Random(7)
    for _ in range(200):
        t = random_term("s5", rng.choice(["", "b", "d", "bd", "db"]),
                        rng.randint(0, 6), rng)
        assert parse_term(term_to_str(t)) == t


def test_check_word():
    for word in ("bxd", "x", "B", "db "):
        with pytest.raises(TermError):
            check_word(word)
    for word in ("", "bdb"):
        assert check_word(word) == word


def test_typing_table():
    cases = {
        "eps_box{d}": ("bd", "d"), "eps_dia{b}": ("b", "db"),
        "delta_bb{d}": ("bd", "bbd"), "delta_dd{b}": ("ddb", "db"),
        "delta_bd{d}": ("dd", "bdd"), "delta_db{e}": ("db", "b"),
        "sigma_bb{e}": ("b", "bb"), "sigma_dd{e}": ("dd", "d"),
        "sigma_db{e}": ("d", "db"), "sigma_bd{e}": ("bd", "b"),
        "chi_bb{d}": ("bbd", "bbd"), "chi_db{b}": ("dbb", "bdb"),
        "chi_bd{e}": ("bd", "db"), "chi_dd{e}": ("dd", "dd"),
    }
    for text, expected in cases.items():
        assert term_type(parse_term(text)) == expected, text


def test_term_factors_on_any_tree_shape():
    # Right- and left-nested composites, an operator over a composite and
    # parentheses around either have the same spine, which the parse
    # carries.
    texts = ["box(eps_box{b}) . box(delta_bb{e}) . delta_bb{e}",
             "(box(eps_box{b}) . box(delta_bb{e})) . delta_bb{e}",
             "box(eps_box{b} . delta_bb{e}) . delta_bb{e}",
             "(box(eps_box{b} . delta_bb{e}) . id{bb}) . delta_bb{e}",
             "((box((eps_box{b}) . delta_bb{e}))) . (delta_bb{e})",
             "box((eps_box{b}) . (id{bb} . delta_bb{e})) . delta_bb{e}"]
    parsed = [parse_term(text) for text in texts]
    assert all("_spine" in vars(term) for term in parsed)
    spines = [term_factors(term) for term in parsed]
    assert spines == [term_factors(parse_reference.parse_term(text))
                      for text in texts]
    assert all(spine == spines[0] for spine in spines)
    assert spines[0][:2] == ("b", "bb")
    assert [(f.prefix, f.kind) for f in spines[0][2]] == [
        ("", "delta_bb"), ("b", "delta_bb"), ("b", "eps_box")]
    with pytest.raises(TypingError):
        term_factors(parse_term("box(eps_box{e} . id{d}) . delta_bb{e}"))


def test_typecheck_against_theory():
    assert typecheck(parse_term("delta_bd{d}"), "s5") == ("dd", "bdd")
    assert typecheck(parse_term("id{bd}"), "s4_boxdia") == ("bd", "bd")
    with pytest.raises(TypingError):
        typecheck(parse_term("eps_box{e} . eps_dia{e}"), "s4_boxdia")
    with pytest.raises(TheoryError):
        typecheck(parse_term("delta_bd{e}"), "s4_boxdia")
    with pytest.raises(TheoryError):
        typecheck(parse_term("eps_box{e}"), raw_splus())
    assert typecheck(parse_term("eps_box{b}"), raw_splus()) == ("bb", "b")


def test_typing_deterministic():
    t = parse_term("box(delta_db{e}) . delta_bd{b}")
    assert term_type(t) == term_type(t) == ("db", "bb")


def test_append_context_examples():
    t = append_context(parse_term("eps_box{e}"), "d")
    assert t == Gen("eps_box", "d")
    assert term_type(t) == ("bd", "d")
    t = parse_term("box(eps_dia{b})")
    assert append_context(t, "") == t
    appended = append_context(t, "d")
    assert appended == parse_term("box(eps_dia{bd})")
    assert term_type(appended) == ("bbd", "bdbd")


def test_append_context_functorial():
    rng = random.Random(3)
    for _ in range(100):
        f = random_term("s5", rng.choice(["", "b", "d", "db"]),
                        rng.randint(0, 4), rng)
        ctx = rng.choice(["", "b", "bd"])
        src, tgt = term_type(f)
        asrc, atgt = term_type(append_context(f, ctx))
        assert (asrc, atgt) == (src + ctx, tgt + ctx)
        g_of = append_context(Id(src), ctx)
        assert g_of == Id(src + ctx)


def test_dualize_examples():
    t = dualize(parse_term("eps_box{e}"))
    assert t == Gen("eps_dia", "")
    assert term_type(t) == ("", "d")
    t = parse_term("delta_bb{e} . eps_box{b}")
    d = dualize(t)
    assert d == parse_term("eps_dia{d} . delta_dd{e}")
    assert term_type(d) == ("dd", "dd")


def test_dualize_involution():
    rng = random.Random(11)
    for _ in range(100):
        t = random_term("s4_boxdia", rng.choice(["", "b", "d", "bd"]),
                        rng.randint(0, 5), rng)
        assert dualize(dualize(t)) == t


def test_dualize_matches_converse_of_interpretation():
    # The dual term's image is the converse diagram with both boundary words
    # operator-swapped; checked for every generator instance with small index.
    from modalcoherence.terms import GENERATORS, swap_word

    kind_theory = {
        "eps_box": "s4_boxdia", "eps_dia": "s4_boxdia",
        "delta_bb": "s4_boxdia", "delta_dd": "s4_boxdia",
        "delta_bd": "s5", "delta_db": "s5",
        "chi_bb": "s4_boxdia_chi", "chi_dd": "s4_boxdia_chi",
        "chi_db": "s42_iso", "chi_bd": "s42_iso",
    }
    words = ["", "b", "d", "bb", "bd", "db", "dd", "bdb", "dbd"]
    for kind, theory in kind_theory.items():
        for word in words:
            t = Gen(kind, word)
            image = interp(theory, t)
            dual_image = interp(theory, dualize(t))
            expected = dg.converse(image)
            assert dual_image.key() == expected.key(), (kind, word)
            assert dual_image.src_word == swap_word(expected.src_word)
            assert dual_image.tgt_word == swap_word(expected.tgt_word)


def test_term_size():
    assert term_size(parse_term("id{bd}")) == 0
    assert term_size(parse_term("box(delta_db{e}) . delta_bd{b}")) == 2


def test_deep_operator_nesting_at_default_recursion_limit():
    # 100,000 mixed applications with whitespace between the tokens: the
    # parser applies the wrappers that close right after their leaf at once
    # and keeps the ones open over a composite on a stack; the printer walks
    # the term with an explicit stack.
    rng = random.Random(5)
    prefix = "".join(rng.choice("bd") for _ in range(100_000))
    opens = " ".join("box (" if op == "b" else "dia(" for op in prefix)
    closes = " )" * len(prefix)
    for body, src, tgt in [("eps_box{e}", "b", ""),
                           ("id{b} . eps_box{b}", "bb", "b")]:
        text = f"{opens} {body} {closes}"
        term = parse_term(text)
        printed = term_to_str(term)
        assert printed == "".join(text.split()).replace(".", " . ")
        assert parse_term(printed) == term
        assert typecheck(term, "s4_boxdia") == (prefix + src, prefix + tgt)


@pytest.mark.parametrize("text, other", [
    ("box(" * 2000 + "eps_box{e}" + ")" * 2000,
     "box(" * 2000 + "eps_box{b}" + ")" * 2000),
    (" . ".join(["eps_box{b} . delta_bb{e}"] * 50_000),
     " . ".join(["eps_box{b} . delta_bb{e}"] * 50_000)[:-3] + "{b}"),
], ids=["operator_nest_2000", "composition_chain_100000"])
def test_deep_terms_at_default_recursion_limit(text, other):
    # Equality, hashing, repr, printing and the term transforms walk a term
    # with an explicit stack, whatever its shape: dualizing turns the
    # parser's right-nested chain into a left-nested one.
    term, different = parse_term(text), parse_term(other)
    src, tgt = term_type(term)
    dual = dualize(term)
    assert term_type(dual) == (swap_word(tgt), swap_word(src))
    assert parse_term(str(dual)) == dual
    same = dualize(dual)
    assert same is not term
    assert same == term and hash(same) == hash(term)
    assert term != different
    shown = repr(term)
    assert shown.count("App(") == text.count("box(")
    assert shown.count("Comp(") == text.count(" . ")
    assert term_type(append_context(term, "d")) == (src + "d", tgt + "d")
    mirrored = mirror_term(term, source="s5")
    assert term_type(mirrored) == (src[::-1], tgt[::-1])
    assert mirror_term(mirrored, source="fives") == term
