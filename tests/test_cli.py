"""Command-line surface: exit codes and deterministic output."""

import json

from modalcoherence import cli, rewrite
from modalcoherence.cli import (
    DOMAIN_ERROR,
    INTERNAL_ERROR,
    UNKNOWN,
    USAGE_ERROR,
    run,
)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse(capsys):
    code, out, _ = invoke(capsys, "parse", "box(delta_db{e}) . delta_bd{b}")
    assert code == 0
    assert out.strip() == "box(delta_db{e}) . delta_bd{b}"


def test_type(capsys):
    code, out, _ = invoke(capsys, "type", "--theory", "s5", "delta_bd{d}")
    assert code == 0
    assert out.strip() == "dd |- bdd"


def test_eq_exit_codes(capsys):
    code, out, _ = invoke(capsys, "eq", "--theory", "s5",
                          "box(delta_db{e}) . delta_bd{b}",
                          "delta_bb{e} . delta_db{e}")
    assert code == 0 and "equal" in out
    code, out, _ = invoke(capsys, "eq", "--theory", "s4_boxdia",
                          "dia(box(eps_dia{e})) . eps_box{db}",
                          "eps_dia{bd} . box(dia(eps_box{e}))")
    assert code == 1
    code, out, _ = invoke(capsys, "eq", "--theory", "s4_box",
                          "eps_box{e}", "delta_bb{e}")
    assert code == 2


def test_eq_sharp_contrast(capsys):
    code, _, _ = invoke(capsys, "eq", "--theory", "s4_boxdia_sharp",
                        "dia(box(eps_dia{e})) . eps_box{db}",
                        "eps_dia{bd} . box(dia(eps_box{e}))")
    assert code == 1
    code, _, _ = invoke(capsys, "eq", "--theory", "s4_boxdia_triv",
                        "dia(box(eps_dia{e})) . eps_box{db}",
                        "eps_dia{bd} . box(dia(eps_box{e}))")
    assert code == 0


def test_eq_sharp_on_long_words(capsys):
    # The collapse arrows of a 1,500-letter word used to recurse per letter.
    term = "id{" + "b" * 1500 + "}"
    code, out, err = invoke(capsys, "eq", "--theory", "s4_boxdia_sharp",
                            term, term)
    assert code == 0 and out.strip() == "equal", err


def test_interp_json(capsys):
    code, out, _ = invoke(capsys, "interp", "--theory", "s5",
                          "--format", "json", "box(delta_db{e}) . delta_bd{b}")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "spliteq"
    assert payload["classes"] == [[["s", 0], ["s", 1], ["t", 0], ["t", 1]]]


def test_interp_deterministic(capsys):
    args = ("interp", "--theory", "s4_boxdia", "--format", "json",
            "eps_box{db} . delta_bb{db}")
    _, out1, _ = invoke(capsys, *args)
    _, out2, _ = invoke(capsys, *args)
    assert out1 == out2


def test_nf(capsys):
    code, out, _ = invoke(capsys, "nf", "--theory", "t_box",
                          "eps_box{b} . box(eps_box{b})")
    assert code == 0
    assert out.strip() == "eps_box{b} . eps_box{bb}"


def test_prove(capsys):
    code, out, _ = invoke(capsys, "prove", "--theory", "s5", "--depth", "6",
                          "box(delta_db{e}) . delta_bd{b}",
                          "delta_bb{e} . delta_db{e}")
    assert code == 0 and out.startswith("Proved")
    # Different diagrams: the terms are not equal.
    code, out, _ = invoke(capsys, "prove", "--theory", "s4_boxdia",
                          "--depth", "4",
                          "dia(box(eps_dia{e})) . eps_box{db}",
                          "eps_dia{bd} . box(dia(eps_box{e}))")
    assert code == 1 and out.strip() == "not equal"
    # Equal diagrams, but no derivation within the size slack.
    code, out, _ = invoke(capsys, "prove", "--theory", "splus_chi_op",
                          "box(delta_bb{e}) . chi_bb{e}",
                          "chi_bb{b} . box(chi_bb{e}) . delta_bb{b}")
    # The size cap dropped rewrites, so a larger slack may find one.
    assert code == UNKNOWN == 3 and out.strip() == "Unknown (size_cap)"


def test_hom(capsys):
    code, out, _ = invoke(capsys, "hom", "--theory", "s4_dia",
                          "--from", "dd", "--to", "dd")
    assert code == 0
    assert out.startswith("3 arrow(s)")
    # A negative budget is bad input, not an empty search.
    code, out, err = invoke(capsys, "hom", "--theory", "s4_boxdia",
                            "--from", "bdb", "--to", "dbd", "--budget", "-1")
    assert code == DOMAIN_ERROR and out == ""
    assert "witness budget must be non-negative" in err


def test_embed(capsys):
    code, out, _ = invoke(capsys, "embed", "--kind", "monotone",
                          "--map", "0,0", "--cod", "1")
    assert code == 0
    assert out.splitlines()[0] == "delta_dd{e}"


def test_mirror(capsys):
    code, out, _ = invoke(capsys, "mirror", "--from", "s5", "delta_bd{e}")
    assert code == 0
    assert out.strip() == "sigma_db{e}"


def test_skeleton(capsys):
    code, out, _ = invoke(capsys, "skeleton", "--theory", "s4_boxdia_triv")
    assert code == 0
    assert len(json.loads(out)["objects"]) == 7


def test_check_suites(capsys):
    code, out, _ = invoke(capsys, "check", "--suite", "soundness",
                          "--theory", "s4_box", "--bound", "2")
    assert code == 0
    code, out, _ = invoke(capsys, "check", "--suite", "confluence",
                          "--theory", "t_box", "--bound", "3")
    assert code == 0
    code, out, _ = invoke(capsys, "check", "--suite", "roundtrip",
                          "--theory", "s5", "--bound", "25")
    assert code == 0
    code, out, _ = invoke(capsys, "check", "--suite", "counting",
                          "--theory", "s4_dia", "--bound", "3")
    assert code == 0


def test_check_confluence_reports_divergences(capsys):
    # The normal forms of a divergence are sorted by their factors' fields.
    code, out, err = invoke(capsys, "check", "--suite", "confluence",
                            "--theory", "s_chi", "--bound", "3")
    assert code == 1 and err == ""
    assert out.strip() == "s_chi: 343 terms, 11 divergences"


def test_prove_negative_depth_is_bad_input(capsys):
    code, out, err = invoke(capsys, "prove", "--theory", "s5", "--depth", "-1",
                            "eps_box{e}", "eps_box{e}")
    assert code == DOMAIN_ERROR and out == ""
    assert "depth must be non-negative" in err


def test_check_soundness_runs_every_admitted_variant(capsys):
    code, out, _ = invoke(capsys, "check", "--suite", "soundness",
                          "--theory", "t_box", "--bound", "1")
    assert code == 0
    assert out.splitlines() == [f"t_box/{variant}: 7 instances, 0 failures"
                                for variant in ("std", "eps", "delta")]
    code, out, _ = invoke(capsys, "check", "--suite", "soundness",
                          "--theory", "s42_sharp", "--bound", "0")
    assert code == 0
    assert out.splitlines() == ["s42_sharp/std: 32 instances, 0 failures",
                                "s42_sharp/sharp: 32 instances, 0 failures"]


def test_check_bound_zero_and_negative(capsys):
    # A bound of 0 is honoured, not replaced by the suite's default: the
    # soundness sweep of s4_box then checks the empty word only (the
    # default, 2, gives 111 instances).
    code, out, _ = invoke(capsys, "check", "--suite", "soundness",
                          "--theory", "s4_box", "--bound", "0")
    assert code == 0
    assert out.strip() == "s4_box/std: 5 instances, 0 failures"
    code, out, _ = invoke(capsys, "check", "--suite", "confluence",
                          "--theory", "t_box", "--bound", "0")
    assert code == 0 and out.strip() == "t_box: 2 terms, 0 divergences"
    code, out, _ = invoke(capsys, "check", "--suite", "roundtrip",
                          "--theory", "s5", "--bound", "0")
    assert code == 0 and out.strip() == "0 roundtrips ok"
    code, out, _ = invoke(capsys, "check", "--suite", "counting",
                          "--theory", "s4_dia", "--bound", "0")
    assert code == 0 and out.strip() == "hom(0,0) = 1 (expected 1)"
    for suite in ("soundness", "confluence", "roundtrip", "counting"):
        code, out, err = invoke(capsys, "check", "--suite", suite,
                                "--theory", "s4_dia", "--bound", "-3")
        assert code == DOMAIN_ERROR, suite
        assert not out and "--bound must be non-negative" in err, suite


def test_usage_and_domain_errors(capsys):
    code, _, _ = invoke(capsys, "frobnicate")
    assert code == USAGE_ERROR
    code, _, _ = invoke(capsys, "eq", "--theory", "s5", "eps_box{e}")
    assert code == USAGE_ERROR
    code, _, err = invoke(capsys, "parse", "unknown_gen{e}")
    assert code == DOMAIN_ERROR and "error" in err
    code, _, err = invoke(capsys, "type", "--theory", "s4_boxdia",
                          "delta_bd{e}")
    assert code == DOMAIN_ERROR
    code, _, err = invoke(capsys, "interp", "--theory", "s5",
                          "--functor", "eps", "id{b}")
    assert code == DOMAIN_ERROR


def test_internal_error_is_not_a_verdict(capsys, monkeypatch):
    # An unexpected exception must not exit 1, which eq reports as "not equal".
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "decide_equal", broken)
    code, out, err = invoke(capsys, "eq", "--theory", "s5", "id{b}", "id{b}")
    assert code == INTERNAL_ERROR == 70
    assert out == ""
    assert err.strip() == "internal error: RuntimeError: boom"


def test_guard_failure_is_an_internal_error(capsys, monkeypatch):
    # SoundnessViolation is a TermError, but it reports a library fault, not
    # bad input.
    build_side = rewrite.build_side

    def broken(side, bindings):
        return [f for f in build_side(side, bindings) if f.kind != "chi_bb"]

    monkeypatch.setattr(rewrite, "build_side", broken)
    code, out, err = invoke(capsys, "prove", "--theory", "s4_box_chi",
                            "delta_bb{b} . chi_bb{e}",
                            "box(chi_bb{e}) . chi_bb{b} . box(delta_bb{e})")
    assert code == INTERNAL_ERROR == 70
    assert out == ""
    assert err.startswith("internal error: SoundnessViolation: ")
