"""The option table: help, parse errors and the two spellings of an option."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvemotive.cli import main

ROOT = Path(__file__).parent.parent
CUSP = str(ROOT / "demos" / "graphs" / "cusp.json")

# every command and oracle sub-command, with a valid argv for it; each lists
# every option its level accepts, so its --help must name each flag given
VALID = {
    ("matrices",): ["--input", CUSP, "--format", "json"],
    ("codim",): ["--input", CUSP, "--stratum", '{"n": [1, 0, 0]}', "--format", "text"],
    ("compute",): [
        "--series", "pg", "--bound", "4", "--input", CUSP, "--format", "text",
        "--specialize", "L=2", "--strict-integral", "--workers", "2",
    ],
    ("check",): ["--bound", "4", "--input", CUSP, "--workers", "1"],
    ("oracle", "semigroup-gf"): ["--generators", "2,3", "--bound", "7"],
    ("oracle", "monomial-codim"): ["--weights", "1,1;1,2;2,3", "--w", "2,3,6"],
    ("oracle", "count-divisors"): ["--q", "2", "--removed", "2", "--n", "3"],
}
REQUIRED = {
    ("matrices",): ["--input"],
    ("codim",): ["--input", "--stratum"],
    ("compute",): ["--input", "--series"],
    ("check",): ["--input"],
    ("oracle", "semigroup-gf"): ["--generators", "--bound"],
    ("oracle", "monomial-codim"): ["--weights", "--w"],
    ("oracle", "count-divisors"): ["--q", "--removed", "--n"],
}
LEVELS = list(VALID)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def flags(argv):
    return [token for token in argv if token.startswith("--")]


def without(argv, flag):
    """``argv`` less the option ``flag`` and, unless it is a flag, its value."""
    k = argv.index(flag)
    width = 1 if flag == "--strict-integral" else 2
    return argv[:k] + argv[k + width :]


def assert_usage_error(code, out, err, argv):
    assert (code, out) == (2, ""), argv
    assert err.startswith("usage error: ") and err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize("level", LEVELS, ids=" ".join)
def test_help_names_every_option(capsys, level):
    for spelling in ("--help", "-h"):
        code, out, err = run(capsys, *level, spelling)
        assert (code, err) == (0, ""), level
        assert out.startswith(f"usage: curvemotive {' '.join(level)} [-h] "), level
        for flag in flags(VALID[level]):
            assert f" {flag} " in out or f" {flag}\n" in out, (level, flag)


def test_help_names_every_command(capsys):
    for level, names in (
        ((), ["matrices", "codim", "compute", "check", "oracle"]),
        (("oracle",), ["semigroup-gf", "monomial-codim", "count-divisors"]),
    ):
        code, out, err = run(capsys, *level, "--help")
        assert (code, err) == (0, "")
        commands = out.split("commands:\n", 1)[1]
        assert [line.split()[0] for line in commands.splitlines()] == names, level


def test_help_ends_parsing_where_it_stands(capsys):
    # the first -h or --help wins over what follows it, unknown options too
    assert run(capsys, "--help", "--input", CUSP)[:2] == run(capsys, "--help")[:2]
    assert run(capsys, "compute", "--nope", "-h")[:2] == run(capsys, "compute", "-h")[:2]
    # but a bad value before it is an error, and the token after an option is its value
    assert_usage_error(*run(capsys, "compute", "--series", "x", "-h"), "bad choice")
    code, out, err = run(capsys, "compute", "--series", "pdg", "--bound", "2", "--input", "--help")
    assert (code, out) == (1, "") and "--help" in err


@pytest.mark.parametrize("level", LEVELS, ids=" ".join)
def test_parse_errors_are_usage_errors(capsys, level):
    argv = VALID[level]
    longest = max(flags(argv), key=len)
    broken = {f"no {flag}": without(argv, flag) for flag in REQUIRED[level]} | {
        "unknown option": [*argv, "--nope"],
        "stray value": [*argv, "json"],
        "no value": [*argv, REQUIRED[level][0]],
        "abbreviation": [longest[:-1] if token == longest else token for token in argv],
    }
    for name, bad in broken.items():
        assert_usage_error(*run(capsys, *level, *bad), (level, name))


@pytest.mark.parametrize(
    "level, option, value",
    [
        (("matrices",), "--format", "xml"),
        (("codim",), "--format", "JSON"),
        (("compute",), "--format", ""),
        (("compute",), "--series", "pgg"),
        (("compute",), "--workers", "x"),
        (("compute",), "--workers", "2.0"),
        (("check",), "--workers", ""),
        (("oracle", "semigroup-gf"), "--bound", "seven"),
        (("oracle", "count-divisors"), "--q", "2,3"),
        (("oracle", "count-divisors"), "--n", "x"),
    ],
)
def test_bad_values_are_usage_errors(capsys, level, option, value):
    argv = VALID[level]
    for bad in ([*without(argv, option), option, value], [*without(argv, option), f"{option}={value}"]):
        code, out, err = run(capsys, *level, *bad)
        assert_usage_error(code, out, err, bad)
        assert repr(value) in err, bad


def test_a_flag_takes_no_value(capsys):
    argv = without(VALID[("compute",)], "--strict-integral")
    assert_usage_error(*run(capsys, "compute", *argv, "--strict-integral=1"), "flag")


def test_missing_or_unknown_commands_are_usage_errors(capsys):
    for argv in ([], ["oracle"], ["nope"], ["oracle", "nope"], ["--input", CUSP], ["oracle", "--q", "2"]):
        assert_usage_error(*run(capsys, *argv), argv)


@pytest.mark.parametrize("level", LEVELS, ids=" ".join)
def test_equals_form_prints_what_the_spaced_form_prints(capsys, level):
    spaced = VALID[level]
    joined, k = [], 0
    while k < len(spaced):
        if spaced[k] == "--strict-integral":
            joined.append(spaced[k])
            k += 1
        else:
            joined.append(f"{spaced[k]}={spaced[k + 1]}")
            k += 2
    expected = run(capsys, *level, *spaced)
    assert expected[0] == 0 and expected[1], level
    assert run(capsys, *level, *joined) == expected, joined


def test_a_repeated_option_keeps_its_last_value(capsys):
    argv = ["compute", "--series", "pdg", "--bound", "3", "--input", CUSP]
    assert run(capsys, "compute", "--series", "pg", *argv[1:]) == run(capsys, *argv)


def test_a_negative_bound_reaches_the_bound_check(capsys):
    code, out, err = run(capsys, "check", "--input", CUSP, "--bound", "-1")
    assert (code, out, err) == (2, "", "usage error: bounds must be nonnegative\n")


def test_a_cli_run_imports_no_argument_parser():
    script = f"""
import io, sys
import curvemotive.__main__
from curvemotive import cli
sys.stdout = io.StringIO()
codes = [cli.main(argv) for argv in (
    ["compute", "--series", "pg", "--bound", "4", "--input", {CUSP!r}],
    ["compute", "--help"],
)]
sys.stdout = sys.__stdout__
print(codes, sorted({{"argparse", "gettext", "locale"}} & set(sys.modules)))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=60, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[0, 0] []\n", "")
