"""The command-line surface: subcommands, exit codes, rendering, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvemotive import build, cli
from curvemotive.cli import main
from curvemotive.codim import ExponentVector
from curvemotive.grothendieck import RingElement
from curvemotive.series import (
    TruncatedSeries,
    divisorial_semigroup_stratum_sum,
    poincare_generalised,
)

from conftest import cusp_description

DEMOS = Path(__file__).parent.parent / "demos"


@pytest.fixture()
def cusp_file(tmp_path):
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(cusp_description()))
    return str(path)


@pytest.fixture()
def single_file(tmp_path):
    path = tmp_path / "single.json"
    path.write_text(
        json.dumps({"centers": [{"prox": []}], "branches": [{"attach": 1}]})
    )
    return str(path)


@pytest.fixture()
def chain12_file(tmp_path):
    path = tmp_path / "chain12.json"
    path.write_text(
        json.dumps(
            {
                "centers": [{"prox": []}, {"prox": [1], "h": 2}],
                "branches": [{"attach": 2, "h": 2}],
            }
        )
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrices_text(capsys, cusp_file):
    code, out, _err = run(capsys, "matrices", "--input", cusp_file)
    assert code == 0
    assert "P:" in out and "M:" in out
    assert "1  1  2" in out  # first row of M
    assert "2  3  6" in out


def test_matrices_json(capsys, cusp_file):
    code, out, _err = run(capsys, "matrices", "--input", cusp_file, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["N"] == [[-3, 0, 1], [0, -2, 1], [1, 1, -1]]
    assert data["M"] == [[1, 1, 2], [1, 2, 3], [2, 3, 6]]


def test_matrices_exact_fractions(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(
        json.dumps({"centers": [{"prox": []}, {"prox": [1], "h": 2}]})
    )
    code, out, _err = run(capsys, "matrices", "--input", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["M"] == [[1, 1], [1, "3/2"]]


def test_codim_subcommand(capsys, cusp_file):
    stratum = json.dumps(
        {"I": [], "J": [1], "n": [0, 0, 0], "branch_mults": [[1, 1]]}
    )
    code, out, _err = run(capsys, "codim", "--input", cusp_file, "--stratum", stratum)
    assert code == 0
    assert "nhat: [0, 0, 1]" in out
    assert "F: 7" in out


def test_codim_json_flags(capsys, chain12_file):
    stratum = json.dumps({"I": [], "J": [], "n": [0, 1]})
    code, out, _err = run(
        capsys,
        "codim",
        "--input",
        chain12_file,
        "--stratum",
        stratum,
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["w"] == [1, "3/2"]
    assert data["w_integral"] == [True, False]
    assert data["F"] == "15/4"
    assert data["F_D"] == "15/4"


def test_compute_closed_form_single(capsys, single_file):
    code, out, _err = run(capsys, "compute", "--series", "phatd-closed", "--input", single_file)
    assert code == 0
    assert out.strip() == "1 / ((1 - t1)*(1 - L*t1))"


@pytest.mark.parametrize(
    "option",
    [["--bound", "3"], ["--bound", ",,,"], ["--specialize", "L=1,all=5"], ["--strict-integral"]],
)
def test_closed_form_rejects_the_options_it_does_not_read(capsys, option):
    argv = ["compute", "--series", "phatd-closed", "--input", str(DEMOS / "graphs" / "chain2_h12.json")]
    code, out, err = run(capsys, *argv, *option)
    assert (code, out) == (2, "")
    assert err.endswith(f"usage error: phatd-closed reads only --input and --format, not {option[0]}\n")


def test_compute_pg_with_specialization(capsys, cusp_file):
    code, out, _err = run(
        capsys,
        "compute",
        "--series",
        "pg",
        "--bound",
        "10",
        "--input",
        cusp_file,
        "--specialize",
        "L=1,all=1",
    )
    assert code == 0
    exponents = [line.split(":")[0] for line in out.strip().splitlines()]
    assert exponents == ["t^(0)", "t^(2)", "t^(3)", "t^(4)", "t^(5)", "t^(6)", "t^(7)", "t^(8)", "t^(9)", "t^(10)"]
    assert all(line.endswith(" 1") for line in out.strip().splitlines())


def test_compute_bound_arity_mismatch_is_usage_error(capsys, cusp_file):
    code, _out, err = run(
        capsys, "compute", "--series", "pg", "--bound", "4,6", "--input", cusp_file
    )
    assert code == 2
    assert "arity" in err


def test_specialize_lefschetz_to_zero_is_a_clean_data_error(capsys, cusp_file):
    # pg carries negative L-powers, which L = 0 cannot evaluate
    code, out, err = run(
        capsys, "compute", "--series", "pg", "--bound", "4", "--input", cusp_file,
        "--specialize", "L=0,all=1",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    # a field symbol left without a value is named without the quotes of a KeyError
    code, out, err = run(
        capsys, "compute", "--series", "pg", "--bound", "4", "--specialize", "L=1",
        "--input", str(DEMOS / "graphs" / "chain2_h12.json"),
    )
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == "error: no specialization value for symbol e[k2]"


def test_specialize_names_default_pair_labels(capsys):
    argv = ["compute", "--series", "pg", "--bound", "6", "--input", str(DEMOS / "graphs" / "chain2_h12.json")]
    code, default, _err = run(capsys, *argv, "--specialize", "L=1,all=0")
    assert code == 0
    code, out, _err = run(capsys, *argv, "--specialize", "L=1,e[k2]=0,e[P(1,2)]=0,e[C1]=0")
    assert (code, out) == (0, default)


def test_every_accepted_label_can_be_specialized(capsys, tmp_path):
    # E2, P(1,2) and C1 all have degree 2 and so carry symbols in pg
    graph = {"centers": [{"prox": []}, {"prox": [1], "h": 2}], "branches": [{"attach": 2, "h": 2}]}
    awkward = ["E2", "P(1,2)", "C1", "a,b", " x ,", "L", "all", "e", "1/2", "(,)", "k\u00e9", "t1^2*L"]
    labellings = [{}] + [
        {"E2": awkward[k], "P(1,2)": awkward[k + 1], "C1": awkward[k + 2]} for k in range(0, len(awkward), 3)
    ]
    path = tmp_path / "labelled.json"
    for labels in labellings:
        path.write_text(json.dumps({**graph, "labels": labels}))
        argv = ["compute", "--series", "pg", "--bound", "4", "--input", str(path)]
        code, out, _err = run(capsys, *argv)
        names = [labels.get(site, site) for site in ("E2", "P(1,2)", "C1")]
        assert code == 0 and all(f"e[{name}]" in out for name in names), labels
        code, default, _err = run(capsys, *argv, "--specialize", "L=1,all=0")
        assert code == 0
        spec = "L=1," + ",".join(f"e[{name}]=0" for name in names)
        code, out, _err = run(capsys, *argv, "--specialize", spec)
        assert (code, out) == (0, default), labels


def test_closed_stdout_exits_141_quietly(cusp_file):
    # The read end is closed before the child starts, so its first write to
    # stdout fails; a cut-off check must not exit 0 as if every line passed.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(DEMOS.parent / "src"), env.get("PYTHONPATH")]))
    for argv in (["compute", "--series", "pdg", "--bound", "2"], ["check", "--bound", "4"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "curvemotive", *argv, "--input", cusp_file],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b""), argv


def test_check_malformed_bound_is_usage_error(capsys, cusp_file):
    for bound in ("abc", "-1", "3,4", "6,", ",6", " ", ""):
        code, out, err = run(capsys, "check", "--input", cusp_file, "--bound", bound)
        assert code == 2, bound
        assert out == "" and err.startswith("usage error: "), bound


def test_empty_bound_field_is_usage_error(capsys, cusp_file):
    for bound in ("4,,", ",4", "4,", "4, ,4"):
        code, out, err = run(capsys, "compute", "--series", "pg", "--bound", bound, "--input", cusp_file)
        assert (code, out, err) == (2, "", f"usage error: malformed bound {bound!r}\n"), bound


def test_check_fail_line_names_first_difference(capsys, cusp_file, monkeypatch):
    from curvemotive import series

    original = series.nhat_codim_literal

    def off_by_one_at(nh, g):
        return original(nh, g) + (1 if nh == (0, 1, 0) else 0)

    # the series see the patched literal codimension; check's own
    # codimension line uses the binding in cli, which stays correct
    monkeypatch.setattr(series, "nhat_codim_literal", off_by_one_at)
    code, out, _err = run(capsys, "check", "--input", cusp_file, "--bound", "4")
    assert code == 3
    lines = out.splitlines()
    for what in ("divisorial", "branch"):
        assert (
            f"FAIL: {what} series: stratum sum vs factored display ({what} series: composed "
            "codimension and literal codimension disagree at nhat = (0, 1, 0): composed "
            "codimension 3, literal codimension 4)"
        ) in lines
    assert "ok: codimensions: composed vs expanded form, genus identity" in lines


def test_check_builds_each_stratum_at_most_once(capsys, cusp_file, monkeypatch):
    from curvemotive import series

    built = []
    original = series.Stratum

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(series, "Stratum", counted)
    code, out, _err = run(capsys, "check", "--bound", "6", "--input", cusp_file)
    assert code == 0, out
    in_check = len(built)
    g = build(cusp_description())
    distinct = len(list(series.enumerate_strata(g, (6,)))) + len(
        list(series.enumerate_strata(g.without_branches, (6,) * 3))
    )
    # at most: a memo filled before this test may save some of them
    assert in_check <= distinct


def test_wrong_symmetric_power_coefficients_fail_the_independent_lines(capsys, cusp_file, monkeypatch):
    from curvemotive import series

    original = series.sym_power_class

    def binomial_off_by_one(label, nu, n):
        # the coefficients of (1 - x)^nu in place of (1 - x)^(nu - 1)
        return original(label, nu + 1, n)

    monkeypatch.setattr(series, "sym_power_class", binomial_off_by_one)
    monkeypatch.setattr(cli, "sym_power_class", binomial_off_by_one)
    code, out, _err = run(capsys, "check", "--input", cusp_file, "--bound", "6")
    assert code == 3
    failed = [line.split(" (")[0] for line in out.splitlines() if line.startswith("FAIL")]
    for name in (
        "extended-semigroup series: closed form vs stratum sum",
        "symmetric-power classes count divisors over GF(2), GF(3)",
        "totally rational: branch-series reduction",
    ):
        assert f"FAIL: {name}" in failed, name


def test_wrong_pair_units_fail_the_extended_semigroup_reduction(capsys, cusp_file, monkeypatch):
    from curvemotive.series import ClosedFormExpr

    original = cli.divisorial_closed_form

    def pair_units_off_by_one(g):
        cf = original(g)
        pairs = tuple((i1, i2, h, units - RingElement.one()) for i1, i2, h, units in cf.pair_data)
        return ClosedFormExpr(cf.arity, cf.m_rows, cf.component_classes, pairs)

    monkeypatch.setattr(cli, "divisorial_closed_form", pair_units_off_by_one)
    # cusp's first pair term is t1^3*t2^4*t3^8, so bound 6 would not reach it
    code, out, _err = run(capsys, "check", "--input", cusp_file, "--bound", "9")
    assert code == 3
    failed = [line.split(" (")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert "FAIL: totally rational: extended-semigroup reduction" in failed


@pytest.mark.parametrize("name", ["nhat_codim_literal", "deg_AK"])
def test_codimension_line_fails_alone(capsys, cusp_file, monkeypatch, name):
    original = getattr(cli, name)

    def off_by_one_at_one_nhat(nh, g):
        return original(nh, g) + (1 if nh == (0, 1, 0) else 0)

    monkeypatch.setattr(cli, name, off_by_one_at_one_nhat)
    code, out, _err = run(capsys, "check", "--input", cusp_file, "--bound", "4")
    assert code == 3
    assert [line for line in out.splitlines() if not line.startswith("ok: ")] == [
        "FAIL: codimensions: composed vs expanded form, genus identity"
    ]


def bumped_at_one(original):
    """``original`` with 1 added to the constant term of the series it returns."""

    def bumped(*args):
        series = original(*args)
        series.add_term(ExponentVector((0,) * series.arity), RingElement.one())
        return series

    return bumped


def test_closed_form_mismatch_names_first_difference(capsys, cusp_file, monkeypatch):
    monkeypatch.setattr(cli, "expand", bumped_at_one(cli.expand))
    code, out, err = run(capsys, "compute", "--series", "phatd", "--bound", "4", "--input", cusp_file)
    assert (code, out) == (3, "")
    assert err == (
        "cross-check failure: extended-semigroup series: closed form and stratum sum disagree; "
        "first at 1: closed form 2, stratum sum 1\n"
    )
    code, out, _err = run(capsys, "check", "--input", cusp_file, "--bound", "4")
    assert code == 3
    lines = out.splitlines()
    assert (
        "FAIL: extended-semigroup series: closed form vs stratum sum (extended-semigroup "
        "series: closed form and stratum sum disagree; first at 1: closed form 2, stratum sum 1)"
    ) in lines
    assert (
        "FAIL: totally rational: extended-semigroup reduction (extended-semigroup series: "
        "closed form and reduced form disagree; first at 1: closed form 2, reduced form 1)"
    ) in lines


def test_branch_series_reduction_fail_line_names_first_difference(capsys, cusp_file, monkeypatch):
    reduced = cli.poincare_generalised_totally_rational
    monkeypatch.setattr(cli, "poincare_generalised_totally_rational", bumped_at_one(reduced))
    code, out, _err = run(capsys, "check", "--input", cusp_file, "--bound", "4")
    assert code == 3
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL: totally rational: branch-series reduction (branch series: stratum sum and "
        "reduced form disagree; first at 1: stratum sum 1, reduced form 2)"
    ]


def test_phatd_strict_integral_counts_dropped_strata(capsys):
    path = DEMOS / "graphs" / "chain2_h12.json"
    g = build(json.loads(path.read_text(encoding="utf-8")))
    want = divisorial_semigroup_stratum_sum(g, (6, 6), strictness="integral")
    assert want.skipped_nonintegral == 20
    argv = ["compute", "--series", "phatd", "--bound", "6", "--input", str(path), "--strict-integral"]
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert "warning: 20 strata with non-integral exponents dropped" in err.splitlines()
    assert out == want.to_text() + "\n"
    code, out, _err = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert TruncatedSeries.from_json(json.loads(out)) == want
    assert json.loads(out)["skipped_nonintegral"] == 20


def test_phatd_strict_integral_is_checked_against_the_closed_form(capsys, monkeypatch):
    original = cli.divisorial_semigroup_stratum_sum

    def bumped_when_integral(g, bound, *, strictness="literal"):
        series = original(g, bound, strictness=strictness)
        if strictness == "integral":
            series.add_term(ExponentVector((0,) * series.arity), RingElement.one())
        return series

    monkeypatch.setattr(cli, "divisorial_semigroup_stratum_sum", bumped_when_integral)
    path = str(DEMOS / "graphs" / "chain2_h12.json")
    argv = ["compute", "--series", "phatd", "--bound", "6", "--input", path]
    code, _out, _err = run(capsys, *argv)
    assert code == 0
    code, out, err = run(capsys, *argv, "--strict-integral")
    assert (code, out) == (3, "")
    assert err.splitlines()[-1] == (
        "cross-check failure: extended-semigroup series: closed form and stratum sum disagree; "
        "first at 1: closed form 1, stratum sum 2"
    )


def test_specialize_rejects_a_label_the_graph_does_not_carry(capsys, cusp_file):
    chain = str(DEMOS / "graphs" / "chain2_h12.json")
    argv = ["compute", "--series", "pdg", "--bound", "2", "--input", chain, "--specialize"]
    for spec in ("L=1,all=1,e[kk2]=5", "L=1,all=1,kk2=5"):
        code, out, err = run(capsys, *argv, spec)
        assert (code, out) == (2, ""), spec
        assert err.splitlines()[-1] == (
            "usage error: --specialize names 'kk2', not a field label of the graph "
            "(labels: k2, P(1,2), C1)"
        ), spec
    # a branch label is a label of the graph, though pdg has no branch symbol
    code, default, _err = run(capsys, *argv, "L=1,all=1")
    assert code == 0
    code, out, _err = run(capsys, *argv, "L=1,all=1,e[k2]=0,e[C1]=0")
    assert code == 0 and out != default
    code, out, err = run(
        capsys, "compute", "--series", "pg", "--bound", "4", "--input", cusp_file, "--specialize", "L=1,e[k]=3"
    )
    assert (code, out) == (2, "")
    assert err == "usage error: --specialize names 'k', not a field label of the graph (labels: none)\n"


def test_unknown_flag_is_usage_error(capsys, cusp_file):
    code, _out, _err = run(capsys, "compute", "--nope", "--input", cusp_file)
    assert code == 2


def test_check_has_no_format_option(capsys, cusp_file):
    code, out, err = run(capsys, "check", "--bound", "4", "--input", cusp_file, "--format", "json")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --format json" in err


def test_validation_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for bad in (
        {"centers": [{"prox": [3]}]},
        {"centers": [5]},
        {"centers": [{"prox": []}], "labels": [1, 2]},
        # numbers are JSON integers, never truncated to one
        {"centers": [{"prox": []}, {"prox": [1.7]}]},
        {"centers": [{"prox": [], "h": 2.9}]},
        {"centers": [{"prox": [], "h": True}]},
        {"centers": [{"prox": [], "h": 2}, {"prox": [1], "h": 4}], "labels": {"E1": "k", "E2": "k"}},
    ):
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "matrices", "--input", str(path))
        assert (code, out) == (1, ""), bad
        assert err.startswith("validation error: "), bad
    # a label that --specialize could not name as e[label]
    for label in (None, 3, ["k"], "", "a=b", "a[b", "k]"):
        path.write_text(json.dumps({"centers": [{"prox": [], "h": 2}], "labels": {"E1": label}}))
        code, out, err = run(capsys, "matrices", "--input", str(path))
        assert (code, out) == (1, ""), label
        assert err.startswith("validation error: malformed graph record: a label is "), label


def test_malformed_stratum_fields_are_data_errors(capsys, cusp_file):
    for stratum in (
        '{"I": 5}',
        '{"n": 5}',
        '{"J": [[1]]}',
        '{"branch_mults": [1]}',
        '{"n": [1.5, 2, 3]}',
        '{"I": [[1, 3]], "pair_mults": [[1]]}',
        '{"I": [[1, 3, 2]], "pair_mults": [[1, 1]]}',
        '{"J": [1], "branch_mults": [[1, 1, 1]]}',
        '{"J": [true], "branch_mults": [[1, 1]]}',
    ):
        code, out, err = run(capsys, "codim", "--input", cusp_file, "--stratum", stratum)
        assert (code, out) == (1, ""), stratum
        assert err.startswith("validation error: malformed stratum: "), stratum


def test_branch_series_of_branch_free_graph_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"centers": [{"prox": []}, {"prox": [1]}]}))
    code, out, err = run(capsys, "compute", "--series", "pg", "--bound", "4", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == "error: the branch series needs at least one branch\n"


def test_check_exits_zero_on_good_graphs(capsys, cusp_file, chain12_file):
    for path in (cusp_file, chain12_file):
        code, out, _err = run(capsys, "check", "--input", path, "--bound", "6")
        assert code == 0
        assert "FAIL" not in out


def test_compute_json_round_trip(capsys, cusp_file):
    code, out, _err = run(
        capsys,
        "compute",
        "--series",
        "pdg",
        "--bound",
        "4,4,4",
        "--input",
        cusp_file,
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    series = TruncatedSeries.from_json(data)
    assert series.to_json() == data


def test_nonintegral_warning_banner(capsys, chain12_file):
    code, out, err = run(
        capsys,
        "compute",
        "--series",
        "phatd",
        "--bound",
        "3,4",
        "--input",
        chain12_file,
    )
    assert code == 0
    assert "t2^(3/2)" in out
    assert "non-integral" in err


def test_strict_integral_mode(capsys, chain12_file):
    code, out, err = run(
        capsys,
        "compute",
        "--series",
        "pdg",
        "--bound",
        "3,4",
        "--input",
        chain12_file,
        "--strict-integral",
    )
    assert code == 0
    assert "(3/2)" not in out
    assert "dropped" in err


def test_oracle_subcommands(capsys):
    code, out, _err = run(capsys, "oracle", "semigroup-gf", "--generators", "2,3", "--bound", "7")
    assert code == 0 and out.split() == ["1", "0", "1", "1", "1", "1", "1", "1"]
    code, out, _err = run(
        capsys, "oracle", "monomial-codim", "--weights", "1,1;1,2;2,3", "--w", "2,3,6"
    )
    assert code == 0 and out.strip() == "5"
    code, out, _err = run(capsys, "oracle", "count-divisors", "--q", "2", "--removed", "2", "--n", "3")
    assert code == 0 and out.strip() == "4"


@pytest.mark.parametrize(
    "args",
    [
        ("semigroup-gf", "--generators", "2,3", "--bound", "-1"),
        ("semigroup-gf", "--generators", "2,x", "--bound", "7"),
        ("monomial-codim", "--weights", "1,1;1,x", "--w", "2,3"),
        ("monomial-codim", "--weights", "1,1;1,2", "--w", "2,1.5"),
        ("monomial-codim", "--weights", "1,2,3", "--w", "2"),
        ("monomial-codim", "--weights", "1", "--w", "2"),
        # well formed, but out of the oracle's range
        ("count-divisors", "--q", "7", "--removed", "1", "--n", "2"),
        ("count-divisors", "--q", "2", "--removed", "1", "--n", "-1"),
        ("count-divisors", "--q", "2", "--removed", "9", "--n", "2"),
        ("monomial-codim", "--weights", "0,1", "--w", "1"),
        ("monomial-codim", "--weights", "1,1", "--w", "1,2"),
        ("semigroup-gf", "--generators", "0,2", "--bound", "5"),
        # an empty field
        ("semigroup-gf", "--generators", "2,,3", "--bound", "7"),
        ("semigroup-gf", "--generators", "2,3,", "--bound", "7"),
        ("monomial-codim", "--weights", "1,1;1,2", "--w", "2,,3"),
        ("monomial-codim", "--weights", "1,1;;1,2", "--w", "2,3"),
    ],
)
def test_malformed_oracle_arguments_are_usage_errors(capsys, args):
    code, out, err = run(capsys, "oracle", *args)
    assert code == 2
    assert out == "" and err.startswith("usage error: ")
    if args[2] in ("1,2,3", "1"):  # a weight that is not a pair is named
        assert f"malformed --weights {args[2]!r}" in err


def test_semigroup_check_compares_support_with_the_semigroup(cusp_file):
    # the cusp's value semigroup is <2, 3>: its only gap is 1
    g = cli._load_graph(cusp_file)
    pg = poincare_generalised(g, (10,))
    assert cli._semigroup_check(g, pg, 10)
    missing = TruncatedSeries(1, pg.bound, dict(pg.terms))
    del missing.terms[ExponentVector((4,))]
    assert not cli._semigroup_check(g, missing, 10)
    extra = TruncatedSeries(1, pg.bound, dict(pg.terms))
    extra.add_term(ExponentVector((1,)), RingElement.one())
    assert not cli._semigroup_check(g, extra, 10)


def test_byte_identical_output_across_runs(capsys, cusp_file):
    outputs = set()
    for _ in range(2):
        code, out, _err = run(
            capsys, "compute", "--series", "pg", "--bound", "12", "--input", cusp_file
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
