"""Theory registry contents and factor enumeration."""

from itertools import product

from modalcoherence.terms import GENERATORS, Factor
from modalcoherence.theories import (
    GEN,
    REGISTRY,
    REL,
    STAGES,
    applicable_factors,
    enumerate_factor_terms,
    get_theory,
    raw_splus,
)

EXPECTED = {
    "k": (frozenset(), REL, None),
    "t_box": ({"eps_box"}, REL, None),
    "t_dia": ({"eps_dia"}, REL, None),
    "k4_box": ({"delta_bb"}, REL, None),
    "k4_dia": ({"delta_dd"}, REL, None),
    "t_boxdia": ({"eps_box", "eps_dia"}, REL, None),
    "k4_boxdia": ({"delta_bb", "delta_dd"}, REL, None),
    "s_chi": ({"eps_box", "chi_bb"}, REL, None),
    "splus_chi_op": ({"delta_bb", "chi_bb"}, REL, None),
    "s4_box": ({"eps_box", "delta_bb"}, REL, None),
    "s4_dia": ({"eps_dia", "delta_dd"}, REL, None),
    "s4_boxdia": ({"eps_box", "eps_dia", "delta_bb", "delta_dd"}, REL, None),
    "s4_box_chi": ({"eps_box", "delta_bb", "chi_bb"}, REL, None),
    "s4_dia_chi": ({"eps_dia", "delta_dd", "chi_dd"}, REL, None),
    "s4_boxdia_chi": ({"eps_box", "eps_dia", "delta_bb", "delta_dd",
                       "chi_bb", "chi_dd"}, REL, None),
    "s42": ({"eps_box", "eps_dia", "delta_bb", "delta_dd", "chi_db"},
            REL, None),
    "s41": ({"eps_box", "eps_dia", "delta_bb", "delta_dd", "chi_bd"},
            REL, None),
    "s42_iso": ({"eps_box", "eps_dia", "delta_bb", "delta_dd", "chi_db",
                 "chi_bd"}, REL, None),
    "s5": ({"eps_box", "eps_dia", "delta_bb", "delta_dd", "delta_bd",
            "delta_db"}, GEN, None),
    "fives": ({"eps_box", "eps_dia", "sigma_bb", "sigma_dd", "sigma_db",
               "sigma_bd"}, GEN, None),
    "s4_boxdia_sharp": ({"eps_box", "eps_dia", "delta_bb", "delta_dd"},
                        REL, "sharp"),
    "s42_sharp": ({"eps_box", "eps_dia", "delta_bb", "delta_dd", "chi_db"},
                  REL, "sharp"),
    "s4_boxdia_triv": ({"eps_box", "eps_dia", "delta_bb", "delta_dd"},
                       REL, "triv"),
    "s42_triv": ({"eps_box", "eps_dia", "delta_bb", "delta_dd", "chi_db"},
                 REL, "triv"),
    "s5_triv": ({"eps_box", "eps_dia", "delta_bb", "delta_dd", "delta_bd",
                 "delta_db"}, GEN, "triv"),
    "fives_triv": ({"eps_box", "eps_dia", "sigma_bb", "sigma_dd", "sigma_db",
                    "sigma_bd"}, GEN, "triv"),
}


def test_registry_contents():
    assert set(REGISTRY) == set(EXPECTED)
    for tid, (gens, target, quotient) in EXPECTED.items():
        theory = get_theory(tid)
        assert theory.generators == frozenset(gens), tid
        assert theory.target == target, tid
        assert theory.quotient == quotient, tid
        if quotient:
            assert theory.base.quotient is None


def test_applicable_factors():
    assert applicable_factors("k", "bd") == []
    factors = applicable_factors("s4_box", "bb")
    assert Factor("", "eps_box", "b") in factors
    assert Factor("b", "eps_box", "") in factors
    assert Factor("", "delta_bb", "b") in factors
    assert all(f.src == "bb" for f in factors)
    # The counit-diamond applies at every depth.
    assert len([f for f in applicable_factors("t_dia", "bd")
                if f.kind == "eps_dia"]) == 3


def _applicable_by_depth(theory, word):
    # Every kind in order, every depth: the reference applicable_factors
    # must agree with.
    out = []
    for kind in sorted(theory.generators):
        src_pre = GENERATORS[kind][0]
        for depth in range(len(word) + 1):
            rest = word[depth:]
            if not rest.startswith(src_pre):
                continue
            index = rest[len(src_pre):]
            if theory.index_constraint and not theory.index_constraint(index):
                continue
            out.append(Factor(word[:depth], kind, index))
    return out


def test_applicable_factors_agrees_with_the_depth_loop():
    words = ["".join(letters) for n in range(6)
             for letters in product("bd", repeat=n)]
    for theory in [*REGISTRY.values(), raw_splus()]:
        for word in words:
            assert applicable_factors(theory, word) == \
                _applicable_by_depth(theory, word), (theory.id, word)


def test_enumerate_factor_terms_counts():
    terms = enumerate_factor_terms("t_box", "bb", 2)
    # identity, two single deletions, two two-step deletions
    assert len(terms) == 5
    assert [len(t) for t in terms].count(0) == 1


def test_stages_partition_the_generators():
    # Each staged theory names every one of its generators in exactly one
    # stage, so synthesis never emits a generator the theory lacks.
    for tid, stages in STAGES.items():
        kinds = [kind for stage in stages for kind in stage.split()]
        assert len(kinds) == len(set(kinds)), tid
        assert set(kinds) == get_theory(tid).generators, tid
