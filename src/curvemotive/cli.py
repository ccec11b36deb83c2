"""Command-line front end.

Subcommands: ``matrices`` (dump P, Delta, N, M), ``codim`` (stratum
codimension report), ``compute`` (one of the three series, optionally
specialized), ``check`` (run every cross-form identity on a graph) and
``oracle`` (direct access to the brute-force validators).

Exit codes: 0 success, 1 data or validation error, 2 usage error,
3 cross-check failure, 141 (128 + SIGPIPE) when the reader closes stdout early.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import _linalg, oracles
from .codim import (
    Stratum,
    deg_AA,
    deg_AK,
    hoskin_deligne,
    nhat_codim,
    nhat_codim_literal,
    stratum_report,
    w_of,
)
from .grothendieck import Specialization, _frac_json
from .resolution import GraphValidationError, _json_int, build, matrices_report
from .series import (
    Run,
    SeriesCrossCheckError,
    divisorial_closed_form,
    divisorial_semigroup_stratum_sum,
    expand,
    poincare_divisorial,
    poincare_generalised,
    poincare_generalised_totally_rational,
    require_branches,
    require_same_series,
    sym_power_class,
    totally_rational_closed_form,
)

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_CROSSCHECK = 3
EXIT_BROKEN_PIPE = 141

EXTENDED = "extended-semigroup series"


class _UsageError(Exception):
    pass


# The command line as one table.  A command maps to ``(help, options)``, where
# ``options`` is either a tuple of option rows or, for ``oracle``, a table of
# its sub-commands.  An option row is ``(flag, kind, required, default, help)``;
# ``kind`` is ``str``, ``int``, ``bool`` (a flag, which takes no value) or a
# tuple of the accepted values.
_INPUT = ("--input", str, True, None, "graph description (JSON file)")
_FORMAT = ("--format", ("text", "json"), False, "text", None)
_BOUND = ("--bound", str, False, None, "per-variable truncation bound, comma separated (e.g. 4,6,12)")
_WORKERS = ("--workers", int, False, None, "accepted; has no effect")

_ABOUT = (
    "Motivic Poincare series of curve singularities from embedded-resolution "
    "combinatorics, in exact arithmetic."
)
_COMMANDS = {
    "matrices": ("dump P, Delta, N, M exactly", (_INPUT, _FORMAT)),
    "codim": (
        "codimension report for one stratum",
        (
            _INPUT,
            _FORMAT,
            ("--stratum", str, True, None, "stratum description: JSON file path, or an inline JSON object"),
        ),
    ),
    "compute": (
        "compute a truncated series",
        (
            _INPUT,
            _FORMAT,
            _BOUND,
            (
                "--series",
                ("pg", "pdg", "phatd", "phatd-closed"),
                True,
                None,
                "pg: branch series; pdg: divisorial series; phatd: extended-"
                "semigroup series (expanded); phatd-closed: its closed form",
            ),
            ("--specialize", str, False, None, "comma-separated assignments, e.g. L=1,all=1 or L=2,e[k2]=0"),
            ("--strict-integral", bool, False, False, "drop strata with non-integral valuation vectors"),
            _WORKERS,
        ),
    ),
    "check": ("run all cross-form identities", (_INPUT, _BOUND, _WORKERS)),
    "oracle": (
        "run a brute-force validator directly",
        {
            "semigroup-gf": (
                None,
                (("--generators", str, True, None, "e.g. 2,3"), ("--bound", int, True, None, None)),
            ),
            "monomial-codim": (
                None,
                (("--weights", str, True, None, "e.g. 1,1;1,2;2,3"), ("--w", str, True, None, "e.g. 2,3,6")),
            ),
            "count-divisors": (
                None,
                tuple((flag, int, True, None, None) for flag in ("--q", "--removed", "--n")),
            ),
        },
    ),
}
_HELP = ("-h", "--help")


def _dest(flag: str) -> str:
    """The attribute an option is stored under: ``--strict-integral`` -> ``strict_integral``."""
    return flag[2:].replace("-", "_")


def _parse_args(argv: list[str]):
    """``argv`` read against ``_COMMANDS``, the options as attributes of a
    namespace; ``None`` once the help that ``-h``/``--help`` asked for is printed.

    Each level names a command, then its options in any order, as ``--opt
    value`` or ``--opt=value``; the token after ``--opt`` is its value whatever
    it looks like, and a repeated option keeps its last value.  Anything else
    raises ``_UsageError``.
    """
    prog, about, table = "curvemotive", _ABOUT, _COMMANDS
    values = {}
    dests = iter(("command", "oracle_name"))
    k = 0
    while type(table) is dict:  # a level that names a command
        token = argv[k] if k < len(argv) else None
        k += 1
        if token in _HELP:
            print(_help(prog, about, table))
            return None
        if token not in table:
            said = f"unknown command {token!r}" if token is not None else "a command is required"
            raise _UsageError(f"{said} (choose from {', '.join(table)})")
        values[next(dests)] = token
        prog = f"{prog} {token}"
        about, table = table[token]

    kinds = {flag: kind for flag, kind, _required, _default, _text in table}
    values.update((_dest(flag), default) for flag, _kind, _required, default, _text in table)
    given, unknown = set(), []
    while k < len(argv):
        token = argv[k]
        k += 1
        if token in _HELP:
            print(_help(prog, about, table))
            return None
        flag, eq, value = token.partition("=")
        if flag not in kinds:
            unknown.append(token)
            continue
        kind = kinds[flag]
        if kind is bool:
            if eq:
                raise _UsageError(f"{flag} takes no value")
            value = True
        elif not eq:
            if k == len(argv):
                raise _UsageError(f"{flag} needs a value")
            value = argv[k]
            k += 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(f"{flag} takes an integer, not {value!r}") from None
        elif type(kind) is tuple and value not in kind:
            raise _UsageError(f"{flag} takes one of {', '.join(kind)}, not {value!r}")
        values[_dest(flag)] = value
        given.add(flag)
    if unknown:
        raise _UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    missing = [flag for flag, _kind, required, _default, _text in table if required and flag not in given]
    if missing:
        raise _UsageError(f"the following options are required: {', '.join(missing)}")
    return SimpleNamespace(**values)


def _help(prog: str, about, table) -> str:
    """The help of one level of the command line, written from its table."""
    if type(table) is dict:
        usage = f"{{{','.join(table)}}} ..."
        heading, rows = "commands", [(name, sub_about or "") for name, (sub_about, _sub) in table.items()]
    else:
        words = []
        rows = [("-h, --help", "show this help and exit")]
        for flag, kind, required, default, text in table:
            if kind is bool:
                word = flag
            elif type(kind) is tuple:
                word = f"{flag} {{{','.join(kind)}}}"
            else:
                word = f"{flag} {'INT' if kind is int else _dest(flag).upper()}"
            words.append(word if required else f"[{word}]")
            shown = "required" if required else None if default in (None, False) else f"default: {default}"
            rows.append((word, "; ".join(filter(None, (text, shown)))))
        usage, heading = " ".join(words), "options"
    width = max(len(name) for name, _text in rows) + 2
    lines = [f"usage: {prog} [-h] {usage}", ""]
    if about:
        lines += [about, ""]
    lines.append(f"{heading}:")
    lines += [f"  {name:<{width}}{text}".rstrip() for name, text in rows]
    return "\n".join(lines)


def _load_graph(path: str):
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return build(data)


def _parse_bound(text: str | None, arity: int, what: str):
    if text is None:
        raise _UsageError(f"--bound is required for {what}")
    bound = _int_list(text, "bound")
    if any(b < 0 for b in bound):
        raise _UsageError("bounds must be nonnegative")
    if len(bound) == 1 and arity > 1:
        bound = bound * arity
    if len(bound) != arity:
        raise _UsageError(
            f"bound arity {len(bound)} does not match the {arity} series variables"
        )
    return tuple(bound)


def _parse_specialization(text: str, labels) -> Specialization:
    """``--specialize`` as a ``Specialization``; a symbol must be one of ``labels``."""
    lefschetz = None
    default = None
    symbols = {}
    assigned = set()
    for chunk in _split_assignments(text):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise _UsageError(f"malformed specialization assignment {chunk!r}")
        key, _, raw = chunk.partition("=")
        key = key.strip()
        try:
            value = Fraction(raw.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise _UsageError(f"malformed specialization value {raw!r}") from exc
        if key == "L":
            lefschetz = value
        elif key == "all":
            default = value
        else:
            if key.startswith("e[") and key.endswith("]"):
                key = key[2:-1]
            if key not in labels:
                known = ", ".join(labels) or "none"
                raise _UsageError(
                    f"--specialize names {key!r}, not a field label of the graph (labels: {known})"
                )
            symbols[key] = value
            key = f"e[{key}]"  # k=... and e[k]=... assign the same symbol
        if key in assigned:
            raise _UsageError(f"--specialize assigns {key} twice")
        assigned.add(key)
    if lefschetz is None:
        raise _UsageError("a specialization must assign L")
    return Specialization(lefschetz=lefschetz, symbols=symbols, default=default)


def _split_assignments(text: str) -> list[str]:
    """``text`` split at its commas outside ``[...]``: ``e[P(1,2)]`` stays whole."""
    chunks, depth, start = [], 0, 0
    for k, c in enumerate(text):
        depth += (c == "[") - (c == "]")
        if c == "," and depth == 0:
            chunks.append(text[start:k])
            start = k + 1
    return chunks + [text[start:]]


def _json_pair(x) -> tuple[int, int]:
    """A two-element JSON list of integers, as a tuple."""
    if type(x) is not list or len(x) != 2:
        raise TypeError(f"expected a pair of integers, got {x!r}")
    return (_json_int(x[0]), _json_int(x[1]))


def _parse_stratum(raw: str, g) -> Stratum:
    if raw.lstrip().startswith("{"):
        data = json.loads(raw)
    else:
        with open(raw, encoding="utf-8") as handle:
            data = json.load(handle)
    try:
        pairs = tuple(_json_pair(pair) for pair in data.get("I", ()))
        branches = tuple(_json_int(j) for j in data.get("J", ()))
        point_mults = tuple(_json_int(x) for x in data.get("n", (0,) * g.s))
        pair_mults = tuple(_json_pair(pm) for pm in data.get("pair_mults", ()))
        branch_mults = tuple(_json_pair(bm) for bm in data.get("branch_mults", ()))
    except (AttributeError, TypeError) as exc:
        raise GraphValidationError([f"malformed stratum: {exc}"]) from exc
    unknown = set(data) - {"I", "J", "n", "pair_mults", "branch_mults"}
    if unknown:
        raise GraphValidationError([f"unknown stratum keys {sorted(unknown)}"])
    if len(point_mults) != g.s:
        raise GraphValidationError([f"stratum n must have {g.s} entries"])
    known = {site.key for site in g.pairs}
    # I and J are sets; the scan never builds a stratum that repeats one
    for k, pair in enumerate(pairs):
        if pair not in known:
            raise GraphValidationError([f"stratum names non-intersecting pair {pair}"])
        if pair in pairs[:k]:
            raise GraphValidationError([f"stratum names pair {pair} twice"])
    for k, j in enumerate(branches):
        if not 1 <= j <= g.r:
            raise GraphValidationError([f"stratum names unknown branch {j}"])
        if j in branches[:k]:
            raise GraphValidationError([f"stratum names branch {j} twice"])
    return Stratum(
        pairs=pairs,
        branches=branches,
        point_mults=point_mults,
        pair_mults=pair_mults,
        branch_mults=branch_mults,
    )


def _aligned(rows) -> str:
    rendered = [[str(x) for x in row] for row in rows]
    widths = [
        max(len(rendered[i][j]) for i in range(len(rendered)))
        for j in range(len(rendered[0]))
    ]
    return "\n".join(
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        for row in rendered
    )


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _cmd_matrices(args) -> int:
    g = _load_graph(args.input)
    report = matrices_report(g)
    if args.format == "json":
        print(json.dumps(report, indent=2))
        return EXIT_OK
    for name in ("P", "Delta", "N", "M"):
        print(f"{name}:")
        print(_aligned(report[name]))
        print()
    print(f"pairs (i1, i2, h_sigma): {[(p['i1'], p['i2'], p['h_sigma']) for p in report['pairs']]}")
    print(f"nu_bullet: {report['nu_bullet']}")
    print(f"nu_circ:   {report['nu_circ']}")
    print(f"beta:      {report['beta']}")
    print(f"epsilon:   {report['epsilon']}")
    return EXIT_OK


def _cmd_codim(args) -> int:
    g = _load_graph(args.input)
    st = _parse_stratum(args.stratum, g)
    report = stratum_report(st, g)
    if args.format == "json":
        print(json.dumps(report, indent=2))
        return EXIT_OK
    print(f"nhat: {report['nhat']}")
    print(f"w:    {report['w']}  integral: {report['w_integral']}")
    print(f"v:    {report['v']}  integral: {report['v_integral']}")
    print(f"alpha: {report['alpha']}")
    print(f"hoskin_deligne: {report['hoskin_deligne']}")
    print(f"deg_AA: {report['deg_AA']}   deg_AK: {report['deg_AK']}")
    print(f"F: {report['F']}  integral: {report['F_integral']}")
    if "F_D" in report:
        print(f"F_D: {report['F_D']}")
    return EXIT_OK


def _specialized_payload(series, spec):
    values = series.specialize(spec)
    return [
        {"t": [_frac_json(e) for e in exp], "value": _frac_json(v)}
        for exp, v in values.items()
    ]


def _cmd_compute(args) -> int:
    g = _load_graph(args.input)
    strictness = "integral" if args.strict_integral else "literal"

    if args.series == "phatd-closed":
        given = (args.bound is not None, args.specialize is not None, args.strict_integral)
        for option, on in zip(("--bound", "--specialize", "--strict-integral"), given):
            if on:
                raise _UsageError(f"phatd-closed reads only --input and --format, not {option}")
        cf = divisorial_closed_form(g)
        if not cf.has_integral_exponents:
            _warn("non-integral exponents present; rendered as exact fractions")
        if args.format == "json":
            print(json.dumps(cf.to_json(), indent=2))
        else:
            print(cf.to_text())
        return EXIT_OK

    if args.series == "pg":
        require_branches(g)
        run = Run(g, _parse_bound(args.bound, g.r, "the branch series"))
        series = poincare_generalised(run, strictness=strictness)
    elif args.series == "pdg":
        run = Run(g.without_branches, _parse_bound(args.bound, g.s, "the divisorial series"))
        series = poincare_divisorial(run, strictness=strictness)
    else:  # phatd: expansion, cross-checked against the stratum sum
        run = Run(g.without_branches, _parse_bound(args.bound, g.s, "the extended-semigroup series"))
        closed = expand(divisorial_closed_form(g), run.bound)
        series = divisorial_semigroup_stratum_sum(run, strictness=strictness)
        if strictness == "integral":
            # a stratum's exponent is its w, so it is dropped exactly when
            # its term of the closed form has a non-integral exponent
            closed.terms = {exp: value for exp, value in closed.terms.items() if exp.is_integral}
        require_same_series(EXTENDED, "closed form", closed, "stratum sum", series)

    if series.skipped_nonintegral:
        _warn(f"{series.skipped_nonintegral} strata with non-integral exponents dropped")
    if not series.is_integral_lattice:
        _warn("non-integral exponents present; rendered as exact fractions")

    if args.specialize:
        labels = dict.fromkeys(label for label, _h in g.labelled_sites)  # in site order, once each
        spec = _parse_specialization(args.specialize, labels)
        payload = _specialized_payload(series, spec)
        if args.format == "json":
            print(json.dumps({"bound": [_frac_json(b) for b in series.bound], "terms": payload}, indent=2))
        else:
            for item in payload:
                exps = ",".join(str(x) for x in item["t"])
                print(f"t^({exps}): {item['value']}")
        return EXIT_OK

    if args.format == "json":
        print(json.dumps(series.to_json(), indent=2))
    else:
        print(series.to_text())
    return EXIT_OK


def _cmd_check(args) -> int:
    g = _load_graph(args.input)
    text = "8" if args.bound is None else args.bound
    if "," in text.strip(", "):
        raise _UsageError("check takes a single scalar --bound")
    (scalar,) = _parse_bound(text, 1, "check")

    failures = []

    def report(name, ok, detail=""):
        status = "ok" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{status}: {name}{suffix}")
        if not ok:
            failures.append(name)

    # 1. matrix layer
    p = g.proximity_matrix
    n = g.intersection_matrix
    m = g.m_matrix
    # an integral unitriangular P^-1 with P P^-1 = I certifies det P = 1
    p_inv = _linalg.unitriangular_inverse(p)
    ok = _linalg.mat_mul(p, p_inv) == _linalg.identity(g.s)
    ok = ok and all(type(x) is int for row in p_inv for x in row)
    ok = ok and n == _linalg.transpose(n)
    ok = ok and m == _linalg.transpose(m)  # M * (-N) = I is verified where M is built
    ok = ok and all(x > 0 for row in m for x in row)
    ok = ok and all(x >= 0 for row in p_inv for x in row)
    report("matrix layer (P unimodular, N symmetric, M = inverse of -N, M > 0)", ok)

    def checked(name, compute):
        try:
            result = compute()
        except SeriesCrossCheckError as exc:
            report(name, False, str(exc))
            return None
        report(name, True)
        return result

    div_run = Run(g.without_branches, (scalar,) * g.s)
    # both series lines keep the names of a removed second route, so check's output is unchanged
    checked(
        "divisorial series: stratum sum vs factored display",
        lambda: poincare_divisorial(div_run),
    )

    closed_form = divisorial_closed_form(g)
    closed = expand(closed_form, div_run.bound)
    checked(
        "extended-semigroup series: closed form vs stratum sum",
        lambda: require_same_series(
            EXTENDED, "closed form", closed, "stratum sum", divisorial_semigroup_stratum_sum(div_run)
        ),
    )

    pg = None
    if g.r >= 1:
        run = Run(g, (scalar,) * g.r)
        pg = checked(
            "branch series: stratum sum vs factored display",
            lambda: poincare_generalised(run),
        )

    ok = True
    for q in (2, 3):
        spec = Specialization(lefschetz=Fraction(q), default=Fraction(1))
        for removed in (1, 2, 3):
            for n in range(5):
                counted = sym_power_class(None, removed, n).specialize(spec)
                ok = ok and counted == oracles.count_divisors_open_line(q, removed, n)
    report("symmetric-power classes count divisors over GF(2), GF(3)", ok)

    # a branch-free stratum's codimension depends on it only through nhat
    ok = all(
        nhat_codim(nh, g) == nhat_codim_literal(nh, g)
        and hoskin_deligne(w_of(nh, g), g) == Fraction(-(deg_AA(nh, g) + deg_AK(nh, g)), 2)
        for nh, _z in div_run.walk_nhats[3]
    )
    report("codimensions: composed vs expanded form, genus identity", ok)

    if g.is_totally_rational:
        reduced = totally_rational_closed_form(g)  # equal records have equal expansions
        same = closed_form == reduced
        report(
            "totally rational: extended-semigroup reduction",
            same,
            "" if same else f"closed form {closed_form.to_text()}, reduced form {reduced.to_text()}",
        )
        if pg is not None:
            tr_pg = poincare_generalised_totally_rational(run)
            checked(
                "totally rational: branch-series reduction",
                lambda: require_same_series("branch series", "stratum sum", pg, "reduced form", tr_pg),
            )
        if g.r == 1 and pg is not None:
            # the curvette values, a column of M, generate the value semigroup
            column = [row[g.branch(1).attach - 1] for row in m]
            at_one = pg.specialize(Specialization(lefschetz=Fraction(1), default=Fraction(1)))
            report(
                "classical specialization: L -> 1 matches the value semigroup",
                at_one == {(v,): 1 for v in oracles.one_branch_series(column, scalar)},
            )

    return EXIT_CROSSCHECK if failures else EXIT_OK


def _int_list(text: str, option: str) -> list[int]:
    """Comma-separated integers; anything else is a usage error."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"malformed {option} {text!r}") from exc


def _cmd_oracle(args) -> int:
    # an oracle rejects an out-of-range argument with ValueError
    try:
        if args.oracle_name == "semigroup-gf":
            gens = _int_list(args.generators, "--generators")
            coeffs = oracles.semigroup_gf(gens, args.bound)
            print(" ".join(str(c) for c in coeffs))
        elif args.oracle_name == "monomial-codim":
            weights = []
            for piece in args.weights.split(";"):
                weight = tuple(_int_list(piece, "--weights"))
                if len(weight) != 2:
                    raise _UsageError(f"malformed --weights {piece!r}: each weight is a pair a,b")
                weights.append(weight)
            system = oracles.MonomialValuationSystem(tuple(weights))
            w = _int_list(args.w, "--w")
            print(oracles.monomial_codim(system, w))
        else:
            print(oracles.count_divisors_open_line(args.q, args.removed, args.n))
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:  # -h or --help: the help is printed
            return EXIT_OK
        command = {
            "matrices": _cmd_matrices,
            "codim": _cmd_codim,
            "compute": _cmd_compute,
            "check": _cmd_check,
            "oracle": _cmd_oracle,
        }[args.command]
        return command(args)
    except BrokenPipeError:
        # a write failed mid-command: the reader stopped early, which is
        # nothing to report but not a success either
        return EXIT_BROKEN_PIPE
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SeriesCrossCheckError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except GraphValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KeyError as exc:
        # str() of a KeyError quotes its message, as the repr of a missing key
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, json.JSONDecodeError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

