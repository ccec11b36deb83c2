"""The command-line surface: subcommands, exit codes, rendering, round trips."""

import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvemotive import Center, ResolutionGraph, build, cli
from curvemotive import codim as codim_module
from curvemotive import series as series_module
from curvemotive.cli import main
from curvemotive.codim import ExponentVector
from curvemotive.grothendieck import RingElement
from curvemotive.series import (
    Run,
    TruncatedSeries,
    divisorial_semigroup_stratum_sum,
    poincare_divisorial,
    poincare_generalised,
)

from conftest import cusp_description, summed_series

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


# (graph, series, format) -> exit code and the leading 16 hex digits of the
# sha256 of stdout, a NUL and stderr, recorded from compute --bound 6
# --specialize L=2,all=0; chain2_h12's pg and pdg have fractional L-exponents
SPECIALIZED_AT_2 = {
    ("cusp", "pg", "text"): (0, "c1503ddee6c977d8"),
    ("cusp", "pg", "json"): (0, "8685a6ebed740234"),
    ("cusp", "pdg", "text"): (0, "b0dd0aa6411eef3c"),
    ("cusp", "pdg", "json"): (0, "1ffcc2fcac560d25"),
    ("cusp", "phatd", "text"): (0, "3a99fe44d6217495"),
    ("cusp", "phatd", "json"): (0, "e739176aa474ce2b"),
    ("chain2_h12", "pg", "text"): (1, "58c52001532071cb"),
    ("chain2_h12", "pg", "json"): (1, "58c52001532071cb"),
    ("chain2_h12", "pdg", "text"): (1, "58c52001532071cb"),
    ("chain2_h12", "pdg", "json"): (1, "58c52001532071cb"),
    ("chain2_h12", "phatd", "text"): (0, "80fafd154ea12b93"),
    ("chain2_h12", "phatd", "json"): (0, "8d6ab32bc9033a91"),
}


@pytest.mark.parametrize("graph, series, fmt", SPECIALIZED_AT_2)
def test_specialize_at_L_2_output_is_unchanged(capsys, graph, series, fmt):
    code, out, err = run(
        capsys, "compute", "--series", series, "--bound", "6", "--specialize", "L=2,all=0",
        "--format", fmt, "--input", str(DEMOS / "graphs" / f"{graph}.json"),
    )
    digest = hashlib.sha256(f"{out}\0{err}".encode()).hexdigest()[:16]
    assert (code, digest) == SPECIALIZED_AT_2[graph, series, fmt]


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


def test_specializing_a_fractional_exponent_at_another_L_is_a_data_error(capsys):
    # the error names the first non-integral exponent in the ring's term order
    code, out, err = run(
        capsys, "compute", "--series", "pg", "--bound", "6", "--specialize", "L=2,all=0",
        "--input", str(DEMOS / "graphs" / "chain2_h12.json"),
    )
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == (
        "error: cannot specialize a non-integral L-exponent -11/4 at L=2; "
        "only L in {0, 1} admits fractional exponents"
    )


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
    # With stdout buffered, the help text first meets the pipe at the
    # process's final flush.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(DEMOS.parent / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    for argv in (["compute", "--series", "pdg", "--bound", "2"], ["check", "--bound", "4"], ["--help"]):
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


def test_process_entry_turns_the_collector_off_around_main(cusp_file, tmp_path, monkeypatch):
    from curvemotive import __main__ as entry

    events = []

    class Stream(io.StringIO):
        def __init__(self, name):
            super().__init__()
            self.name = name

        def flush(self):
            events.append(f"flush {self.name}")

    monkeypatch.setattr(gc, "disable", lambda: events.append("disable"))
    monkeypatch.setattr(os, "_exit", lambda code: events.append(("exit", code)))
    monkeypatch.setattr(sys, "stdout", Stream("stdout"))
    monkeypatch.setattr(sys, "stderr", Stream("stderr"))

    def dispatched(argv=None):
        events.append("main")
        code = main(argv)
        events.append("returned")
        return code

    monkeypatch.setattr(entry, "main", dispatched)
    for argv, expected in (
        (["compute", "--series", "pdg", "--bound", "2", "--input", cusp_file], 0),
        (["check", "--input", str(tmp_path / "missing.json")], 1),
        (["check", "--input", cusp_file, "--format", "json"], 2),
    ):
        monkeypatch.setattr(sys, "argv", ["curvemotive", *argv])
        events.clear()
        assert entry.run() is None, argv  # os._exit is stubbed, so run returns
        assert events[:2] == ["disable", "main"], argv
        tail = events[events.index("returned") :]
        assert tail == ["returned", "flush stdout", "flush stderr", ("exit", expected)], argv
        events.clear()
        assert main(argv) == expected, argv
        assert set(events) <= {"flush stdout"}, argv  # no disable, no exit


def test_process_entry_prints_what_main_prints(tmp_path, capsys):
    # the process ends with os._exit, so its buffered output must be flushed first
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(DEMOS.parent / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    graph = str(DEMOS / "graphs" / "chain2_h12.json")
    pg = ["compute", "--series", "pg", "--bound", "6"]
    for argv, expected in (
        (["compute", "--help"], 0),  # run flushes this and every command's output
        ([*pg, "--frobnicate", "--input", graph], 2),
        (["compute", "--series", "pg", "--bound", "x", "--input", graph], 2),
        ([*pg, "--input", str(tmp_path / "missing.json")], 1),
        ([*pg, "--strict-integral", "--input", graph], 0),  # warns of the dropped strata
        ([*pg, "--input", graph], 0),  # warns of the non-integral exponents
    ):
        code, out, err = run(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "curvemotive", *argv], capture_output=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode()), argv
        assert code == expected and (err or argv[-1] == "--help"), argv


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

    # every Run checks its codimensions against the patched literal one, so
    # the codimension line fails with the two series lines
    monkeypatch.setattr(series, "nhat_codim_literal", off_by_one_at)
    code, out, _err = run(capsys, "check", "--input", cusp_file, "--bound", "4")
    assert code == 3
    lines = out.splitlines()
    differ = (
        "composed codimension and literal codimension disagree at nhat = (0, 1, 0): "
        "composed codimension 3, literal codimension 4"
    )
    for what in ("divisorial", "branch"):
        assert f"FAIL: {what} series: stratum sum vs factored display ({what} series: {differ})" in lines
    assert f"FAIL: codimensions: composed vs expanded form, genus identity (divisorial series: {differ})" in lines


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
    # only the per-stratum reference iterates a scan: the branch Run's, once
    strata = list(series.enumerate_strata(build(cusp_description()), (6,)))
    assert in_check == len(set(built)) == len(strata) > 0


def test_check_computes_each_runs_codimensions_once(capsys, monkeypatch):
    from curvemotive import _linalg

    calls = {}

    def count(module, name):
        original = getattr(module, name)
        calls[name] = 0

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count(series_module, "nhat_codim")
    count(series_module, "nhat_codim_literal")
    count(_linalg, "unitriangular_inverse")
    count(cli, "expand")
    satellite5 = str(DEMOS / "graphs" / "satellite5.json")
    code, out, _err = run(capsys, "check", "--bound", "40", "--input", satellite5)
    assert code == 0, out
    # 54 keys on each of the two Runs, the graph's and its branch-free copy's;
    # each graph builds its M with one inverse and check's matrix line makes a
    # third; the totally rational closed form is compared as a record, so one
    # expansion
    assert calls == {"nhat_codim": 108, "nhat_codim_literal": 108, "unitriangular_inverse": 3, "expand": 1}


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
        return ClosedFormExpr(cf.m_rows, cf.component_classes, pairs)

    monkeypatch.setattr(cli, "divisorial_closed_form", pair_units_off_by_one)
    # cusp's first pair term is t1^3*t2^4*t3^8, so bound 6 would not reach it
    code, out, _err = run(capsys, "check", "--input", cusp_file, "--bound", "9")
    assert code == 3
    failed = [line.split(" (")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert "FAIL: totally rational: extended-semigroup reduction" in failed


@pytest.mark.parametrize("name", ["deg_AA", "deg_AK"])
def test_codimension_line_fails_alone(capsys, cusp_file, monkeypatch, name):
    # the genus line sums d * deg_AA and d * deg_AK in ints; the cusp's d is 1
    original = getattr(codim_module, f"_{name}")

    def off_by_one_at_one_nhat(nh, *rest):
        return original(nh, *rest) + (1 if nh == (0, 1, 0) else 0)

    monkeypatch.setattr(codim_module, f"_{name}", off_by_one_at_one_nhat)
    code, out, _err = run(capsys, "check", "--input", cusp_file, "--bound", "4")
    assert code == 3
    assert [line for line in out.splitlines() if not line.startswith("ok: ")] == [
        "FAIL: codimensions: composed vs expanded form, genus identity"
    ]


def test_matrix_layer_line_fails_alone(capsys, cusp_file, monkeypatch):
    from types import SimpleNamespace

    from curvemotive import _linalg

    def corrupted(p):
        inverse = [list(row) for row in _linalg.unitriangular_inverse(p)]
        inverse[0][-1] += 1
        return inverse

    # only the matrix line reads this module through cli: each graph builds its M itself
    monkeypatch.setattr(cli, "_linalg", SimpleNamespace(**{**vars(_linalg), "unitriangular_inverse": corrupted}))
    code, out, _err = run(capsys, "check", "--input", cusp_file, "--bound", "4")
    assert code == 3
    assert [line for line in out.splitlines() if not line.startswith("ok: ")] == [
        "FAIL: matrix layer (P unimodular, N symmetric, M = inverse of -N, M > 0)"
    ]


def test_check_lines_apply_by_the_shape_of_the_graph(capsys, tmp_path):
    # the digests run check on one-branch graphs only: cusp without its branch
    # prints 6 lines, and cusp2, with two branches, 8
    common = [
        "matrix layer (P unimodular, N symmetric, M = inverse of -N, M > 0)",
        "divisorial series: stratum sum vs factored display",
        "extended-semigroup series: closed form vs stratum sum",
    ]
    middle = [
        "symmetric-power classes count divisors over GF(2), GF(3)",
        "codimensions: composed vs expanded form, genus identity",
        "totally rational: extended-semigroup reduction",
    ]
    bare = cusp_description()
    del bare["branches"]
    cusp2 = {**bare, "branches": [{"attach": 3}, {"attach": 1}]}
    expected = {
        "bare": (bare, common + middle),
        "cusp2": (
            cusp2,
            common
            + ["branch series: stratum sum vs factored display"]
            + middle
            + ["totally rational: branch-series reduction"],
        ),
    }
    for name, (description, lines) in expected.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(description))
        code, out, _err = run(capsys, "check", "--bound", "4", "--input", str(path))
        assert code == 0, name
        assert [line.removeprefix("ok: ") for line in out.splitlines()] == lines, name


def with_term(series, exp, value):
    """``series`` plus ``value`` at ``exp``."""
    return summed_series(series.bound, [*series.terms.items(), (exp, value)], series.skipped_nonintegral)


def bumped_at_one(original):
    """``original`` with 1 added to the constant term of the series it returns."""

    def bumped(*args):
        series = original(*args)
        return with_term(series, (0,) * series.arity, RingElement.one())

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
    want = divisorial_semigroup_stratum_sum(Run(g.without_branches, (6, 6), integral=True))
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

    def bumped_when_integral(run):
        series = original(run)
        if run.integral:
            series = with_term(series, (0,) * series.arity, RingElement.one())
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


def assert_a_broken_class_product_fails_check(capsys, monkeypatch):
    # every pair and branch unit class U becomes U - 1 in the class product,
    # while the count product stays as it is
    original = series_module._coefficients

    def broken(g, keys, below, site, unit, zero):
        if isinstance(zero, RingElement):
            return original(g, keys, below, site, lambda label: unit(label) - RingElement.one(), zero)
        return original(g, keys, below, site, unit, zero)

    monkeypatch.setattr(series_module, "_coefficients", broken)
    path = str(DEMOS / "graphs" / "chain2_h12.json")
    code, out, _err = run(capsys, "check", "--bound", "6", "--input", path)
    assert code == 3
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1
    assert failed[0].startswith("FAIL: extended-semigroup series: closed form vs stratum sum (")


def test_closed_form_checks_the_engine_of_pg_and_pdg(capsys, monkeypatch):
    assert_a_broken_class_product_fails_check(capsys, monkeypatch)


def test_an_earlier_series_in_the_process_serves_no_later_check(capsys, monkeypatch):
    # the same graph and bound as the check's divisorial lines, computed first
    g = build(json.loads((DEMOS / "graphs" / "chain2_h12.json").read_text(encoding="utf-8")))
    poincare_divisorial(Run(g.without_branches, (6, 6)))
    assert_a_broken_class_product_fails_check(capsys, monkeypatch)


def test_check_forms_each_runs_class_and_count_products_once(capsys, monkeypatch):
    calls = []
    original = series_module._coefficients

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(series_module, "_coefficients", counted)
    path = str(Path(__file__).parent.parent / "perfbench" / "graphs" / "satellite5.json")
    code, out, _err = run(capsys, "check", "--bound", "40", "--input", path)
    assert code == 0, out
    # one class and one count product on the branch-free Run, and on the graph's
    assert len(calls) == 4


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


def test_specialize_rejects_a_repeated_assignment(capsys):
    chain = str(DEMOS / "graphs" / "chain2_h12.json")
    argv = ["compute", "--series", "pdg", "--bound", "2", "--input", chain, "--specialize"]
    for spec, key in (
        ("L=2,L=3", "L"),
        ("L=1,all=0,all=0", "all"),
        ("L=1,k2=0,k2=1", "e[k2]"),
        ("L=1,e[k2]=1,k2=2", "e[k2]"),
        ("L=1,e[P(1,2)]=0,all=1,e[P(1,2)]=0", "e[P(1,2)]"),
    ):
        code, out, err = run(capsys, *argv, spec)
        assert (code, out) == (2, ""), spec
        assert err.splitlines()[-1] == f"usage error: --specialize assigns {key} twice", spec


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


def test_compute_and_specialize_usage_errors(capsys, cusp_file):
    argv = ["compute", "--series", "pg", "--input", cusp_file]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "usage error: --bound is required for the branch series\n")
    argv += ["--bound", "4", "--specialize"]
    for spec, message in (
        ("L=1,all", "malformed specialization assignment 'all'"),
        ("L=x", "malformed specialization value 'x'"),
        ("L=1/0", "malformed specialization value '1/0'"),
        ("all=1", "a specialization must assign L"),
    ):
        code, out, err = run(capsys, *argv, spec)
        assert (code, out, err) == (2, "", f"usage error: {message}\n"), spec
    # an empty assignment is skipped
    assert run(capsys, *argv, "L=1,,all=1") == run(capsys, *argv, "L=1,all=1")


def test_codim_reads_a_stratum_file_and_prints_F_D_for_a_branch_free_stratum(capsys, cusp_file, tmp_path):
    path = tmp_path / "stratum.json"
    path.write_text(json.dumps({"n": [0, 1, 0]}))
    code, out, err = run(capsys, "codim", "--input", cusp_file, "--stratum", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "nhat: [0, 1, 0]"
    assert out.splitlines()[-2:] == ["F: 3  integral: True", "F_D: 3"]


def test_stratum_not_on_the_graph_is_a_data_error(capsys, cusp_file):
    for stratum, message in (
        ('{"n": [0, 1]}', "stratum n must have 3 entries"),
        ('{"I": [[1, 2]], "pair_mults": [[1, 1]]}', "stratum names non-intersecting pair (1, 2)"),
        ('{"J": [2], "branch_mults": [[1, 1]]}', "stratum names unknown branch 2"),
    ):
        code, out, err = run(capsys, "codim", "--input", cusp_file, "--stratum", stratum)
        assert (code, out, err) == (1, "", f"validation error: {message}\n"), stratum


def test_invalid_graph_is_reported_without_a_traceback(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for bad, message in (
        ({"centers": []}, "at least one blowup center is required"),
        ({"centers": [{"prox": [], "h": 0}]}, "center 1: degree must be a positive integer"),
        ({"centers": [{"prox": []}, {"prox": [1, 1]}]}, "center 2: repeated proximity indices"),
        ([{"prox": []}], "graph description must be a JSON object"),
    ):
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "matrices", "--input", str(path))
        assert (code, out, err) == (1, "", f"validation error: {message}\n"), bad


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


def test_stratum_repeating_a_pair_or_branch_is_a_data_error(capsys, cusp_file):
    for stratum, message in (
        ('{"J": [1, 1], "branch_mults": [[1, 1], [1, 1]]}', "stratum names branch 1 twice"),
        ('{"I": [[1, 3], [1, 3]], "pair_mults": [[1, 1], [1, 1]]}', "stratum names pair (1, 3) twice"),
    ):
        code, out, err = run(capsys, "codim", "--input", cusp_file, "--stratum", stratum)
        assert (code, out, err) == (1, "", f"validation error: {message}\n"), stratum


def test_stratum_with_an_unknown_key_is_a_data_error(capsys, cusp_file):
    for stratum, keys in (('{"N": [0, 0, 1]}', "['N']"), ('{"n": [0, 0, 1], "K": [], "I ": []}', "['I ', 'K']")):
        code, out, err = run(capsys, "codim", "--input", cusp_file, "--stratum", stratum)
        assert (code, out, err) == (1, "", f"validation error: unknown stratum keys {keys}\n"), stratum


def test_deeply_nested_graph_file_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run(capsys, "matrices", "--input", str(path))
    assert (code, out, err) == (1, "", "error: JSON input is nested too deeply to decode\n")


def test_deeply_nested_stratum_is_a_data_error(capsys, cusp_file, tmp_path):
    path = tmp_path / "deep.json"
    stratum = '{"I": ' + "[" * 100000
    path.write_text(stratum)
    for given in (stratum, str(path)):  # inline, then as a file
        code, out, err = run(capsys, "codim", "--input", cusp_file, "--stratum", given)
        assert (code, out, err) == (1, "", "error: JSON input is nested too deeply to decode\n")


def test_long_input_values_are_cut_to_one_short_line(cusp_file, tmp_path):
    # a 5,000-entry prox and a stratum pair 900 lists deep: the message shows
    # each value cut to 80 characters, and no traceback escapes
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"centers": [{"prox": []}, {"prox": [list(range(5000))]}]}))
    deep = '{"I": [' + "[" * 900 + "]" * 900 + "]}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(DEMOS.parent / "src"), env.get("PYTHONPATH")]))
    cases = (
        (["matrices", "--input", str(path)], "validation error: malformed graph record: expected an integer, got "),
        (
            ["codim", "--input", cusp_file, "--stratum", deep],
            "validation error: malformed stratum: expected a pair of integers, got ",
        ),
    )
    for argv, message in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "curvemotive", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        lines = proc.stderr.splitlines()
        assert (proc.returncode, proc.stdout, len(lines)) == (1, "", 1), argv[0]
        assert lines[0].startswith(message) and lines[0].endswith("...") and len(lines[0]) <= 200
        assert len(lines[0]) == len(message) + 80 and "Traceback" not in proc.stderr


_HUGE = 10**4000  # json.loads reads ints of up to 4,300 digits
_EARLIER = "center 2: proximity must reference earlier center, got"


@pytest.mark.parametrize(
    "command, data, head, tail",
    [
        ("matrices", {"centers": [{"prox": []}, {"prox": [_HUGE]}]}, f"{_EARLIER} 1000", ""),
        (
            "matrices",
            {"centers": [{"prox": []}], "branches": [{"attach": _HUGE}]},
            "branch 1: dangling attachment to component 1000",
            "",
        ),
        (
            "matrices",
            {"centers": [{"prox": [], "h": 2}, {"prox": [1], "h": 3 * _HUGE + 1}]},
            "center 2: degree 3000",
            " is not divisible by degree 2 of center 1",
        ),
        ("codim", {"J": [_HUGE]}, "stratum names unknown branch 1000", ""),
        ("codim", {"I": [[1, _HUGE]]}, "stratum names non-intersecting pair (1, 1000", ""),
        ("matrices", {"centers": [{"prox": []}, {"prox": [5]}]}, f"{_EARLIER} 5", None),
    ],
    ids=["prox", "attach", "h", "J", "I", "fits"],
)
def test_large_input_ints_are_shown_cut(capsys, cusp_file, tmp_path, command, data, head, tail):
    if command == "matrices":
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(data))
        argv = ["matrices", "--input", str(path)]
    else:
        argv = ["codim", "--input", cusp_file, "--stratum", json.dumps(data)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err.count("\n")) == (1, "", 1)
    line = err.rstrip("\n")
    assert len(line) <= 200 and "Traceback" not in err
    if tail is None:  # a value that fits is shown as it was
        assert line == f"validation error: {head}"
    else:
        assert line.startswith(f"validation error: {head}") and line.endswith(f"...{tail}")


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
        # beyond desk scale: 2^50 polynomials, 10^10 monomials, a table of 10^24 entries
        ("count-divisors", "--q", "2", "--removed", "1", "--n", "50"),
        ("monomial-codim", "--weights", "1,1", "--w", "100000"),
        ("semigroup-gf", "--generators", "2,3", "--bound", "1000000000000000000000000"),
    ],
)
def test_malformed_oracle_arguments_are_usage_errors(capsys, args):
    code, out, err = run(capsys, "oracle", *args)
    assert code == 2
    assert out == "" and err.startswith("usage error: ")
    if args[2] in ("1,2,3", "1"):  # a weight that is not a pair is named
        assert f"malformed --weights {args[2]!r}" in err


def test_semigroup_check_compares_support_with_the_semigroup(capsys, cusp_file, monkeypatch):
    # the cusp's value semigroup is <2, 3>: its only gap is 1
    line = "classical specialization: L -> 1 matches the value semigroup"
    code, out, _err = run(capsys, "check", "--input", cusp_file, "--bound", "10")
    assert code == 0 and f"ok: {line}" in out.splitlines()

    def missing_t4(run):
        pg = poincare_generalised(run)
        del pg.terms[ExponentVector((4,))]
        return pg

    def extra_t1(run):
        pg = poincare_generalised(run)
        return with_term(pg, (1,), RingElement.one())

    for broken in (missing_t4, extra_t1):
        monkeypatch.setattr(cli, "poincare_generalised", broken)
        code, out, _err = run(capsys, "check", "--input", cusp_file, "--bound", "10")
        assert code == 3
        assert f"FAIL: {line}" in out.splitlines(), broken.__name__


def test_in_process_calls_leave_no_parser_or_graph_in_a_cycle(capsys, cusp_file, tmp_path):
    # with the collector off, a cycle would keep each call's graph alive
    # until the next collection
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"centers": [{"prox": []}, {"prox": [1]}, {"prox": [1, 2]}]}))
    argvs = (
        ["check", "--bound", "6", "--input", cusp_file],
        ["check", "--bound", "6", "--input", str(bare)],
        ["compute", "--series", "pg", "--bound", "6", "--input", cusp_file],
        ["compute", "--series", "pdg", "--bound", "6", "--input", str(bare)],
    )
    for argv in argvs:  # the first call builds what a process keeps
        assert run(capsys, *argv)[0] == 0
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        for argv in argvs:
            assert run(capsys, *argv)[0] == 0
        gc.set_debug(gc.DEBUG_SAVEALL)  # keep what a collection finds unreachable
        gc.collect()
        kinds = (ResolutionGraph, Center)
        left = [type(obj).__name__ for obj in gc.garbage if isinstance(obj, kinds)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert left == []


def test_a_warm_in_process_run_leaves_no_garbage_that_grows_with_the_bound(capsys):
    # The process entry point turns the collector off: that wastes no memory
    # only while a run's cyclic garbage does not grow with its input.  A
    # --format json dump leaves the json encoder's closures in a cycle of
    # fixed size (on CPython before 3.13).
    graph = str(DEMOS / "graphs" / "chain2_h12.json")

    def garbage(argv):
        assert run(capsys, *argv)[0] == 0  # the first call builds what a process keeps
        gc.collect()
        enabled, flags = gc.isenabled(), gc.get_debug()
        gc.disable()
        try:
            assert run(capsys, *argv)[0] == 0
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            return len(gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            if enabled:
                gc.enable()

    for command in (["compute", "--series", "pg"], ["compute", "--series", "pg", "--format", "json"], ["check"]):
        counts = [garbage([*command, "--bound", str(bound), "--input", graph]) for bound in (6, 12)]
        assert counts[0] == counts[1], command
        assert "json" in command or counts[0] == 0, command


def test_byte_identical_output_across_runs(capsys, cusp_file):
    outputs = set()
    for _ in range(2):
        code, out, _err = run(
            capsys, "compute", "--series", "pg", "--bound", "12", "--input", cusp_file
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
