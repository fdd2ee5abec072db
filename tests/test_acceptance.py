"""Acceptance gate: the full identity web verified at its pinned tolerances.

Each test pins one criterion: exact symbolic checks for the operator
identities, numeric checks with explicit tolerances for the analytic ones,
and runtime bounds where stated.
"""

import math
import time

import pytest

from hyperclass import numerics as N
from hyperclass import verify as V
from hyperclass import verify_numeric as VN
from hyperclass.families import EXPECTED_COUNTS

ROW_COUNTS = {"2f1": 12, "gegenbauer": 8, "1f1": 6, "hermite": 4, "0f1": 2}


def _by_kind(report, kind):
    return [c for c in report.checks if c.kind == kind]


def _assert_all_pass(checks, label):
    bad = [c for c in checks if c.status == "fail"]
    assert not bad, f"{label}: " + ", ".join(
        f"{c.id}(err={c.error})" for c in bad)
    assert checks, f"{label}: no checks ran"


# ---------------------------------------------------------------------------
# 1. Symbolic transmutations: 12/8/6/4/2 exact, under 10 s total
# ---------------------------------------------------------------------------

def test_symbolic_transmutations_exact_and_fast():
    t0 = time.monotonic()
    for family, n in ROW_COUNTS.items():
        report = V.run_suite("transmutations", family=family, tol=1e-8)
        sym = [c for c in _by_kind(report, "symbolic")
               if not c.id.startswith("counts:")]
        assert len(sym) == n, f"{family}: expected {n} symbolic rows"
        _assert_all_pass(sym, f"transmutations[{family}]")
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"symbolic transmutations took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. Symbolic factorizations + Darboux constant-shift consistency, exact
# ---------------------------------------------------------------------------

def test_symbolic_factorizations_exact():
    for family, n in ROW_COUNTS.items():
        report = V.run_suite("factorizations", family=family)
        sym = [c for c in _by_kind(report, "symbolic")
               if not c.id.startswith("counts:")]
        rows = [c for c in sym if not c.id.endswith(":darboux")]
        darboux = [c for c in sym if c.id.endswith(":darboux")]
        assert len(rows) == n, f"{family}: expected {n} factorization rows"
        _assert_all_pass(rows, f"factorizations[{family}]")
        _assert_all_pass(darboux, f"darboux[{family}]")


# ---------------------------------------------------------------------------
# 3. Discrete symmetries: 24/8/4/4/1; Gegenbauer algebraic rows <= 1e-9
# ---------------------------------------------------------------------------

def test_discrete_symmetries():
    counts = {"2f1": 24, "gegenbauer": 8, "1f1": 4, "hermite": 4, "0f1": 1}
    for family, n in counts.items():
        report = V.run_suite("symmetries", family=family, tol=1e-9)
        assert counts[family] == EXPECTED_COUNTS[family]["symmetries"]
        sym = [c for c in _by_kind(report, "symbolic")
               if not c.id.startswith("counts:")]
        num = _by_kind(report, "numeric")
        if family == "gegenbauer":
            # 4 rational rows exact + 4 algebraic rows numeric
            assert len(sym) == 4
            assert len(num) == 4
            _assert_all_pass(num, "symmetries[gegenbauer] numeric")
            for c in num:
                assert c.error is None or c.error <= 1e-9
        else:
            assert len(sym) == n
        _assert_all_pass(sym, f"symmetries[{family}] symbolic")


# ---------------------------------------------------------------------------
# 4. Quadratic links: all 6 exact
# ---------------------------------------------------------------------------

def test_quadratic_links_exact():
    report = V.run_suite("quadratic")
    sym = [c for c in _by_kind(report, "symbolic")
           if not c.id.startswith("counts:")]
    assert len(sym) == 6
    _assert_all_pass(sym, "quadratic links")


# ---------------------------------------------------------------------------
# 5. Kummer's table: 36 pairwise agreements to 1e-10 at 5 samples
# ---------------------------------------------------------------------------

def test_kummer_table():
    assert len(V.KUMMER_POINTS) == 5
    assert all(complex(w).imag > 0 for w in V.KUMMER_POINTS)
    report = V.run_suite("kummer", tol=1e-10)
    assert len(report.checks) == 36
    _assert_all_pass(report.checks, "kummer")
    for c in report.checks:
        if c.status == "pass":
            assert c.error <= 1e-10


# ---------------------------------------------------------------------------
# 6. Recurrences: every row to 1e-10 relative at 5 points each
# ---------------------------------------------------------------------------

def test_recurrences():
    for family, n in ROW_COUNTS.items():
        assert len(V.RECURRENCE_POINTS[family]) == 5
        report = V.run_suite("recurrences", family=family,
                             tol=1e-10)
        num = _by_kind(report, "numeric")
        assert len(num) == n
        _assert_all_pass(num, f"recurrences[{family}]")
        for c in num:
            if c.status == "pass":
                assert c.error <= 1e-10


# ---------------------------------------------------------------------------
# 7. Connection formulas
# ---------------------------------------------------------------------------

def test_connection_2f1_vector_identity():
    assert len(V.CONNECTION_POINTS_2F1) == 10
    al, be, mu = V.NUMERIC_PARAMS["2f1"]
    for w in V.CONNECTION_POINTS_2F1:
        r = VN.connection_residual_2f1(al, be, mu, w)
        assert r <= 1e-9, f"2f1 connection residual {r} at w={w}"


def test_connection_2f1_det_and_inverse():
    al, be, mu = V.NUMERIC_PARAMS["2f1"]
    A = N.connection_matrix_2f1(al, be, mu)
    det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    assert abs(det - N.connection_det_2f1(al, be, mu)) <= 1e-12
    B = N.connection_matrix_2f1(mu, be, al)  # the claimed inverse
    for i in range(2):
        for j in range(2):
            prod = sum(A[i][k] * B[k][j] for k in range(2))
            assert abs(prod - (1 if i == j else 0)) <= 1e-10


def test_connection_1f1():
    th, al = V.NUMERIC_PARAMS["1f1"]
    for w in V.CONNECTION_POINTS_1F1:
        r = VN.connection_residual_1f1(th, al, w)
        assert r <= 1e-9, f"confluent connection residual {r} at w={w}"
    A = N.connection_matrix_1f1(th, al)
    Ainv = N.connection_matrix_1f1_inverse(th, al)
    for i in range(2):
        for j in range(2):
            prod = sum(A[i][k] * Ainv[k][j] for k in range(2))
            assert abs(prod - (1 if i == j else 0)) <= 1e-9
    det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    assert abs(det - N.connection_det_1f1(th, al)) <= 1e-9


def test_connection_0f1():
    (al,) = V.NUMERIC_PARAMS["0f1"]
    for w in V.CONNECTION_POINTS_0F1:
        r = VN.connection_residual_0f1(al, w)
        assert r <= 1e-9, f"0f1 connection residual {r} at w={w}"


# ---------------------------------------------------------------------------
# 8. Integral representations: every row to 1e-7 at >= 3 samples, < 60 s
# ---------------------------------------------------------------------------

def test_integral_representations():
    t0 = time.monotonic()
    report = V.run_suite("integrals", tol=1e-7)
    elapsed = time.monotonic() - t0
    num = _by_kind(report, "numeric")
    assert len(num) == 10 + 8 + 9 + 4 + 7
    _assert_all_pass(num, "integral representations")
    for c in num:
        if c.status == "pass":
            assert c.error <= 1e-7
    assert elapsed < 60.0, f"integral suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 9. ODE residuals: all 19 standard solutions to 1e-9 at 20 random points
# ---------------------------------------------------------------------------

def test_ode_residuals():
    report = V.run_suite("residuals", tol=1e-9)
    assert V.RESIDUAL_POINTS == 20
    num = _by_kind(report, "numeric")
    assert len(num) == 19
    _assert_all_pass(num, "ODE residuals")
    for c in num:
        if c.status == "pass":
            assert c.error <= 1e-9


# ---------------------------------------------------------------------------
# 10. Mutation sensitivity: 20 random single corruptions all detected
# ---------------------------------------------------------------------------

def test_mutation_sensitivity():
    report = V.run_mutation_checks(seed=0, n=20)
    assert len(report.checks) == 20
    assert report.failed == 0, "some corrupted identities went undetected"
    assert report.passed == 20


# ---------------------------------------------------------------------------
# 11. Spot anchors
# ---------------------------------------------------------------------------

def test_spot_anchor_2f1():
    assert abs(N.hyp2f1(1, 1, 2, 0.5) - 2 * math.log(2)) < 1e-12


def test_spot_anchor_gamma():
    assert abs(N.gamma(0.5) - math.sqrt(math.pi)) < 1e-13
