"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on success) and enforces the stated runtime budget.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from curvemotive import (
    MonomialValuationSystem,
    Run,
    Specialization,
    codim_F,
    codim_F_literal,
    codim_FD,
    count_divisors_open_line,
    divisorial_closed_form,
    divisorial_semigroup_stratum_sum,
    expand,
    expand_totally_rational,
    hoskin_deligne,
    monomial_codim,
    poincare_generalised,
    poincare_generalised_totally_rational,
    semigroup_gf,
    sym_power_class,
    w_of,
)
from curvemotive import _linalg

from conftest import cusp_description, random_stratum
from test_linalg import gauss_jordan_inverse


def _report(number: int, description: str, ok: bool, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(
        f"ACCEPTANCE {number}: {status} - {description} "
        f"({elapsed:.2f}s / limit {limit:.0f}s)"
    )
    assert ok, description
    assert elapsed < limit, f"{description}: took {elapsed:.2f}s, limit {limit}s"


def test_criterion_1_matrix_layer(corpus):
    start = time.monotonic()
    ok = True
    for g in corpus.values():
        p = g.proximity_matrix
        n = g.intersection_matrix
        m = g.m_matrix
        p_inv = gauss_jordan_inverse(p)
        # unitriangular with an integral inverse: det P = 1
        ok = ok and all(p[i][i] == 1 for i in range(g.s))
        ok = ok and all(p[i][j] == 0 for i in range(g.s) for j in range(i))
        ok = ok and all(x.denominator == 1 for row in p_inv for x in row)
        ok = ok and n == _linalg.transpose(n)
        ok = ok and _linalg.mat_mul(m, _linalg.neg(n)) == _linalg.identity(g.s)
        ok = ok and all(x > 0 for row in m for x in row)
    _report(1, "matrix layer exact on the corpus", ok, time.monotonic() - start, 1.0)


def test_criterion_2_hoskin_deligne_vs_monomial_oracle(single, chain2, chain3, cusp):
    start = time.monotonic()
    systems = {
        "single": (single, ((1, 1),)),
        "chain2": (chain2, ((1, 1), (1, 2))),
        "chain3": (chain3, ((1, 1), (1, 2), (1, 3))),
        "cusp": (cusp, ((1, 1), (1, 2), (2, 3))),
    }
    ok = True
    checked = 0
    for g, weights in systems.values():
        system = MonomialValuationSystem(weights)
        seen = set()

        def rec(prefix):
            nonlocal ok, checked
            if len(prefix) == g.s:
                w = w_of(prefix, g)
                if all(0 <= x <= 8 for x in w) and w not in seen:
                    seen.add(w)
                    ok = ok and hoskin_deligne(w, g) == monomial_codim(
                        system, [int(x) for x in w]
                    )
                    checked += 1
                return
            for value in range(9):
                candidate = prefix + (value,)
                partial = w_of(candidate + (0,) * (g.s - len(candidate)), g)
                if any(x > 8 for x in partial):
                    break
                rec(candidate)

        rec(())
    ok = ok and checked >= 50
    ok = ok and hoskin_deligne((2, 3, 6), cusp) == 5
    _report(
        2,
        f"Hoskin-Deligne equals the monomial oracle on {checked} vectors",
        ok,
        time.monotonic() - start,
        5.0,
    )


def test_criterion_3_closed_form_vs_stratum_sum(corpus):
    start = time.monotonic()
    ok = True
    for name, g in corpus.items():
        bound = (12,) * g.s
        ok = ok and expand(divisorial_closed_form(g), bound) == \
            divisorial_semigroup_stratum_sum(Run(g.without_branches, bound))
    _report(
        3,
        "closed form equals the stratum sum at bound 12 on every corpus graph",
        ok,
        time.monotonic() - start,
        30.0,
    )


def test_criterion_4_classical_specialization(cusp):
    start = time.monotonic()
    series = poincare_generalised(Run(cusp, (20,)))
    spec = Specialization(lefschetz=Fraction(1), default=Fraction(1))
    values = series.specialize(spec)
    support = sorted(int(exp[0]) for exp in values)
    gf = semigroup_gf([2, 3], 20)
    ok = support == [k for k, hit in enumerate(gf) if hit]
    ok = ok and all(v == 1 for v in values.values())
    _report(
        4,
        "L -> 1 specialization of the cusp branch series is the <2,3> series",
        ok,
        time.monotonic() - start,
        10.0,
    )


def test_criterion_5_symmetric_power_counting():
    start = time.monotonic()
    ok = True
    for q in (2, 3):
        for m in (1, 2, 3):
            for n in range(5):
                spec = Specialization(lefschetz=Fraction(q), default=Fraction(1))
                lhs = sym_power_class(None, m, n).specialize(spec)
                ok = ok and lhs == count_divisors_open_line(q, m, n)
    _report(
        5,
        "symmetric-power classes count divisors over GF(2), GF(3)",
        ok,
        time.monotonic() - start,
        5.0,
    )


def test_criterion_6_totally_rational_reductions(single, cusp, satellite5):
    start = time.monotonic()
    ok = True
    for g in (single, cusp, satellite5):
        bound_div = (10,) * g.s
        ok = ok and expand(divisorial_closed_form(g), bound_div) == \
            expand_totally_rational(g, bound_div)
        run = Run(g, (10,) * g.r)
        ok = ok and poincare_generalised(run) == poincare_generalised_totally_rational(run)
    _report(
        6,
        "totally rational corollary forms match the general formulas",
        ok,
        time.monotonic() - start,
        30.0,
    )


def test_criterion_7_codimension_consistency(corpus):
    start = time.monotonic()
    rng = random.Random(20260809)
    ok = True
    for g in corpus.values():
        for _ in range(200):
            st = random_stratum(rng, g)
            ok = ok and codim_F(st, g) == codim_F_literal(st, g)
            if st.is_divisorial:
                ok = ok and codim_F(st, g) == codim_FD(st, g)
        for _ in range(50):
            st = random_stratum(rng, g, divisorial=True)
            ok = ok and codim_F(st, g) == codim_FD(st, g)
    _report(
        7,
        "composed and expanded codimension formulas agree on random strata",
        ok,
        time.monotonic() - start,
        30.0,
    )


def test_criterion_8_determinism_across_workers(tmp_path):
    start = time.monotonic()
    graph_file = tmp_path / "cusp.json"
    graph_file.write_text(json.dumps(cusp_description()))
    outputs = []
    for workers in (1, 2, 8):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "curvemotive",
                "compute",
                "--series",
                "pg",
                "--bound",
                "12",
                "--input",
                str(graph_file),
                "--workers",
                str(workers),
            ],
            capture_output=True,
            check=True,
        )
        outputs.append(result.stdout)
    ok = outputs[0] == outputs[1] == outputs[2] and outputs[0]
    _report(
        8,
        "compute output byte-identical across 1, 2, 8 workers",
        bool(ok),
        time.monotonic() - start,
        60.0,
    )
