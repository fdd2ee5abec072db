"""Contour quadrature engine and the integral-representation rows."""

import cmath
import math
import struct

import pytest

from hyperclass import numerics as N
from hyperclass import quadrature as Q

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Basic rules
# ---------------------------------------------------------------------------

def test_tanh_sinh_smooth():
    val, est = Q.tanh_sinh(lambda t: cmath.exp(t), 0.0, 1.0)
    assert abs(val - (math.e - 1)) < 1e-13
    assert est < 1e-9


def test_tanh_sinh_endpoint_singularity():
    # int_0^1 t^{-1/2} dt = 2
    val, _ = Q.tanh_sinh(lambda t: t ** -0.5, 0.0, 1.0)
    assert abs(val - 2) < 1e-12


def test_tanh_sinh_beta_integral():
    # B(p+1, q+1) with singular endpoints on both sides
    p, q = -0.7, -0.4
    f = Q.segment_power_integrand(0.0, 1.0, ((1, 0.0, p), (-1, 1.0, q)))
    val, _ = Q.tanh_sinh(f, 0.0, 1.0)
    expected = N.gamma(p + 1) * N.gamma(q + 1) / N.gamma(p + q + 2)
    assert abs(val - expected) < 1e-12 * abs(expected)


def test_tanh_sinh_complex_segment():
    za, zb = 0.5j, 1 + 0.2j
    val, _ = Q.tanh_sinh(lambda t: t * t, za, zb)
    assert abs(val - (zb ** 3 - za ** 3) / 3) < 1e-13


def test_segment_power_integrand_extreme_exponent():
    # exponent -0.95: naive evaluation loses ~eps^{0.95} near the endpoint
    g = -0.95
    f = Q.segment_power_integrand(0.0, 1.0, ((1, 0.0, g),))
    val, _ = Q.tanh_sinh(f, 0.0, 1.0)
    assert abs(val - 1 / (g + 1)) < 1e-11 * abs(1 / (g + 1))


def test_exp_sinh_gamma_integral():
    # int_0^inf e^{-t} t^{z-1} dt = Gamma(z)
    z = 0.3
    val, _ = Q.exp_sinh(lambda s: math.exp(-s) * s ** (z - 1))
    assert abs(val - N.gamma(z)) < 1e-12 * abs(N.gamma(z))


def test_exp_sinh_scaled():
    # int_0^inf e^{-t/100} dt = 100
    val, _ = Q.exp_sinh(lambda s: math.exp(-s / 100), scale=100.0)
    assert abs(val - 100) < 1e-9


def test_double_ray_hankel():
    # (1/2 pi i) oint e^t t^{-z} dt = 1/Gamma(z) on the Hankel contour
    z = 0.7 + 0.3j
    val, _ = Q.double_ray_0(lambda t: cmath.exp(t), -z, 0.8, 40.0)
    got = val / (2j * math.pi)
    expected = N.rgamma(z)
    assert abs(got - expected) < 1e-12 * abs(expected)


def test_keyhole_radius_invariance():
    # the loop value is invariant under deforming the circle radius,
    # which exercises the phase bookkeeping of the lip reduction
    g = -0.4
    fn = lambda t: cmath.exp(t) * (2 - t) ** -0.3
    v1, _ = Q.keyhole_0(fn, g, 0.5)
    v2, _ = Q.keyhole_0(fn, g, 0.9)
    assert abs(v1 - v2) < 1e-11 * max(abs(v1), 1.0)


def test_path_integral_closed_loop_residue():
    # oint dt/(t - p) around a rectangle containing p = 2 pi i
    p = 0.3 + 0.2j
    pieces = [("seg", -1 - 1j, 1 - 1j), ("seg", 1 - 1j, 1 + 1j),
              ("seg", 1 + 1j, -1 + 1j), ("seg", -1 + 1j, -1 - 1j)]
    val, _ = Q.path_integral(pieces, [(1, p, -1)], None)
    assert abs(val - 2j * math.pi) < 1e-10


def test_integrate_contour_wrapper():
    f = Q.segment_power_integrand(0.0, 1.0, ((1, 0.0, -0.5), (-1, 1.0, -0.5)))
    val, est = Q.tanh_sinh(f, 0.0, 1.0, tol=1e-10)
    assert abs(val - math.pi) < 1e-12
    assert est < 1e-10


# ---------------------------------------------------------------------------
# Double-exponential node tables
# ---------------------------------------------------------------------------

NODE_TABLES = (Q._ts_node, Q._es_node)


def _node_bits(node):
    return None if node is None else struct.pack("<dd", *node)


def test_node_tables_match_fresh_computation():
    # every u the doubling trapezoid visits: u = k h, |u| <= 6.5
    for level in range(10):
        h = 0.5 / 2 ** level
        kmax = int(Q._U_MAX_TS / h)
        for k in range(-kmax, kmax + 1):
            u = k * h
            for table in NODE_TABLES:
                table(u)
                assert _node_bits(table(u)) == _node_bits(table.__wrapped__(u))


def test_node_tables_do_not_grow_with_calls():
    for table in NODE_TABLES:
        table.cache_clear()

    def integrate(i):
        za = complex(0.1 * i, -0.05 * i)
        zb = za + (1 + 0.3j) * (1 + 0.1 * i)
        Q.tanh_sinh(lambda t: 1.0, za, zb)
        scale = 0.5 + 0.1 * i
        Q.exp_sinh(lambda s: math.exp(-s / scale) / scale, scale=scale)

    integrate(0)
    sizes = [table.cache_info().currsize for table in NODE_TABLES]
    assert all(sizes)
    for i in range(1, 50):
        integrate(i)
    assert [table.cache_info().currsize for table in NODE_TABLES] == sizes


# ---------------------------------------------------------------------------
# Gauss-Legendre panels
# ---------------------------------------------------------------------------

def test_gauss_legendre_exactness():
    x, w = Q._gl(16)
    assert len(x) == len(w) == 16
    assert list(x) == sorted(x)
    assert all(x[i] == -x[15 - i] and w[i] == w[15 - i] for i in range(16))
    assert abs(sum(w) - 2) < 1e-15
    # a 16-point rule integrates every polynomial of degree <= 31 exactly
    for k in range(32):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        got = sum(wi * xi ** k for xi, wi in zip(x, w))
        assert abs(got - exact) < 1e-15, k


def test_gauss_legendre_matches_numpy():
    np = pytest.importorskip("numpy")
    x, w = Q._gl(16)
    ref_x, ref_w = np.polynomial.legendre.leggauss(16)
    assert max(abs(a - float(b)) for a, b in zip(x, ref_x)) < 1e-15
    assert max(abs(a - float(b)) for a, b in zip(w, ref_w)) < 1e-15


# ---------------------------------------------------------------------------
# Solution evaluators
# ---------------------------------------------------------------------------

def test_hermite_laplace_against_quadratic_link():
    # S_la solves the Hermite equation; spot value against the erfc
    # closed form at la = 1/2: int_0^inf e^{-t^2-2tw} dt
    w = 1.5
    val = Q.hermite_S_solution(0.5, w)
    # normalization 2^{la+1/2}/Gamma(la+1/2) times the Laplace integral
    expected = 2 * SQRT_PI / 2 * math.exp(w * w) * math.erfc(w)
    assert abs(val - expected) < 1e-11 * abs(expected)


def test_hermite_lowering_step():
    # the raising-step branch (Re la <= -0.49) agrees with the asymptotic route
    la, w = -0.8, 6.0
    v1 = Q.hermite_S_solution(la, w)
    v2 = N.eval_hermite_S(la, w)
    assert abs(v1 - v2) < 1e-9 * abs(v1)


def test_bessel_tilde_at_half_integer():
    # alpha = 1/2: tilde-F_{1/2}(w) = e^{-2 sqrt w} w^{-1/2} / 2... check via
    # the connection formula route instead of a closed form
    al, w = 0.29, 2.0 + 1.0j
    lhs = Q.bessel_tilde_solution(al, w)
    cp, cm = N.connection_coeffs_0f1(al)
    rhs = cp * N.bold_F_0f1(al, w) + cm * w ** (-al) * N.bold_F_0f1(-al, w)
    assert abs(lhs - rhs) < 1e-9 * abs(rhs)


def test_tricomi_solution_jet():
    # jet evaluation: first derivative matches central differences
    th, al, w = 0.23, -0.31, 2.5 + 1.5j
    from hyperclass.exactalg import Jet
    j = Q.tricomi_solution(th, al, Jet.variable(w, 1), 1e-12)
    h = 1e-5
    num = (Q.tricomi_solution(th, al, w + h, 1e-13)
           - Q.tricomi_solution(th, al, w - h, 1e-13)) / (2 * h)
    assert abs(j.derivative_value(1) - num) < 1e-6 * abs(num)


# ---------------------------------------------------------------------------
# Integral representation rows
# ---------------------------------------------------------------------------

ROW_COUNTS = {"2f1": 10, "gegenbauer": 8, "1f1": 9, "hermite": 4, "0f1": 7}


@pytest.mark.parametrize("family", sorted(ROW_COUNTS))
def test_rep_row_counts(family):
    rows = Q.integral_rep_rows(family)
    assert len(rows) == ROW_COUNTS[family]
    ids = [r.id for r in rows]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("family", sorted(ROW_COUNTS))
def test_rep_rows_match_expected(family):
    for row in Q.integral_rep_rows(family):
        checked = 0
        for ps, w in row.samples:
            if not row.constraint(ps) or not row.domain(w):
                continue
            val, est = row.evaluate(ps, w, 1e-9)
            exp = row.expected(ps, w)
            assert abs(val - exp) < 1e-7 * max(abs(exp), 1e-30), \
                f"{row.id} at {ps}, {w}"
            checked += 1
        assert checked >= 3, f"{row.id}: fewer than 3 admissible samples"


def test_rep_row_rejects_inadmissible():
    rows = {r.id: r for r in Q.integral_rep_rows("gegenbauer")}
    row = rows["geg:int:06"]
    # w on the segment-crossing locus: real w in (0,1) puts the root
    # segment across the positive real axis
    assert not row.domain(0.5 + 0j)


def test_three_way_split():
    for sign in (1, -1):
        r = Q.three_way_split_residual(0.21, 0.13, 0.34, 0.4 - 0.5j, sign)
        assert r < 1e-10


def test_three_way_split_wrong_half_plane():
    with pytest.raises(N.DomainError):
        Q.three_way_split_residual(0.21, 0.13, 0.34, 0.4 + 0.5j)


def test_quadrature_error_carries_value():
    # an oscillatory non-decaying integrand cannot meet the tolerance
    val, est = Q.tanh_sinh(
        lambda t: cmath.exp(1j / (t + 1e-30)) / (t + 1e-30), 0.0, 1.0,
        tol=1e-14)
    with pytest.raises(Q.QuadratureError) as exc:
        Q._checked(val, est, 1e-14)
    assert exc.value.estimate == est > 0
    assert exc.value.value == val
    assert isinstance(exc.value, N.NumericsError)
    # an estimate within the margin passes the value through unchanged
    assert Q._checked(val, 1e-15 * abs(val), 1e-14) is val
