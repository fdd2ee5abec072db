"""Numeric layer: gamma, series, analytic continuation routes, normalized
solutions and connection data."""

import cmath
import math
import random
import struct

import pytest

from hyperclass import numerics as N
from hyperclass import quadrature as Q
from hyperclass.exactalg import Jet

# ---------------------------------------------------------------------------
# Gamma and friends
# ---------------------------------------------------------------------------

def test_gamma_anchors():
    assert abs(N.gamma(0.5) - math.sqrt(math.pi)) < 1e-13
    assert abs(N.gamma(5) - 24) < 1e-12
    assert abs(N.gamma(1) - 1) < 1e-15
    assert abs(N.gamma(1.5) - math.sqrt(math.pi) / 2) < 1e-14


@pytest.mark.parametrize("z", [0.3 + 0.4j, -1.2 + 0.7j, 2.5 - 1.5j, 0.1 - 3j])
def test_gamma_reflection(z):
    lhs = N.gamma(z) * N.gamma(1 - z)
    rhs = math.pi / N.sinpi(z)
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


@pytest.mark.parametrize("z", [0.4, 1.3 + 0.8j, 0.25 - 0.6j])
def test_gamma_duplication(z):
    lhs = N.gamma(z) * N.gamma(z + 0.5)
    rhs = 2 ** (1 - 2 * complex(z)) * math.sqrt(math.pi) * N.gamma(2 * z)
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_gamma_pole():
    with pytest.raises(N.GammaPoleError):
        N.gamma(0)
    with pytest.raises(N.GammaPoleError):
        N.gamma(-3)
    assert N.rgamma(-3) == 0


def test_sinpi():
    assert abs(N.sinpi(1)) < 1e-15
    assert abs(N.sinpi(7)) < 1e-13
    assert abs(N.sinpi(0.5) - 1) < 1e-15
    z = 0.3 + 0.2j
    assert abs(N.sinpi(z) - cmath.sin(math.pi * z)) < 1e-14


def test_pochhammer():
    assert N.pochhammer(3, 4) == pytest.approx(3 * 4 * 5 * 6)
    assert N.pochhammer(0.5, 0) == 1
    x = 0.7 + 0.2j
    assert abs(N.pochhammer(x, 5)
               - N.gamma(x + 5) / N.gamma(x)) < 1e-12 * abs(N.gamma(x + 5) / N.gamma(x))


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------

def test_2f1_log_value():
    # 2F1(1,1;2;z) = -log(1-z)/z
    for z in (0.5, 0.3 + 0.2j, -0.4):
        got = N.hyp2f1_series(1, 1, 2, z)
        assert abs(got + cmath.log(1 - z) / z) < 1e-13


def test_2f1_binomial():
    # 2F1(a, b; b; z) = (1-z)^{-a}
    a, z = 0.3 + 0.1j, 0.45 - 0.2j
    got = N.hyp2f1_series(a, 2.5, 2.5, z)
    assert abs(got - (1 - z) ** (-a)) < 1e-13


def test_1f1_exponential():
    z = 0.8 - 1.1j
    assert abs(N.hyp1f1_series(1.7, 1.7, z) - cmath.exp(z)) < 1e-13


def test_0f1_sine():
    # 0F1(; 3/2; -z^2/4) = sin(z)/z
    z = 1.3 + 0.4j
    got = N.hyp0f1_series(1.5, -z * z / 4)
    assert abs(got - cmath.sin(z) / z) < 1e-13


def test_series_divergence_raises():
    with pytest.raises(N.ConvergenceError):
        N.hyp2f1_series(0.3, 0.4, 1.2, 1.5)


def _ref_pfq_jet(num, den, z, tol=1e-17, max_terms=N.MAX_SERIES_TERMS):
    """The Jet branch of pfq_series as a loop over Jet objects, which the
    coefficient-tuple loop replaced."""
    num = [complex(p) for p in num]
    den = [complex(q) for q in den]
    term = Jet.constant(1.0, z.center, z.order)
    total = term
    small = 0
    for k in range(max_terms):
        fac = 1.0 + 0.0j
        for p in num:
            fac *= p + k
        for q in den:
            fac /= q + k
        term = term * z * (fac / (k + 1))
        total = total + term
        scale = max(abs(total.value()), 1e-300)
        if abs(term.value()) < tol * scale:
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise N.ConvergenceError("series did not converge", best=total)


def _jet_outcome(fn, *args, **kwargs):
    try:
        got = fn(*args, **kwargs)
    except N.ConvergenceError as exc:
        got = exc.best
        assert isinstance(got, Jet)
        return "diverged", _jet_bits(got)
    assert isinstance(got, Jet)
    return "converged", _jet_bits(got)


def _jet_bits(j):
    return tuple(struct.pack("<dd", c.real, c.imag)
                 for c in (j.center,) + j.coeffs)


_SERIES_SPECIAL = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), -1.0 + 0j,
                   complex(math.inf, 0.0), complex(math.nan, 1.0),
                   1e300 + 1e300j]


def test_pfq_series_jet_bitwise_matches_jet_object_loop():
    rng = random.Random(61018)
    shapes = (((0.3, 0.4), (1.2,)), ((0.7 - 0.2j,), (1.6 + 0.1j,)),
              ((), (0.45,)), ((-2.0, 0.5), (1.5,)), ((1.1, -0.3j), (2.5,)))
    for trial in range(150):
        order = trial % 5
        num, den = shapes[trial % len(shapes)]
        z0 = cmath.rect(rng.uniform(0.0, 0.7), rng.uniform(-math.pi, math.pi))
        coeffs = [z0]
        for _ in range(order):
            if rng.random() < 0.2:
                coeffs.append(rng.choice(_SERIES_SPECIAL))
            else:
                coeffs.append(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        z = Jet(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), coeffs)
        max_terms = 5 if trial % 7 == 0 else N.MAX_SERIES_TERMS
        assert _jet_outcome(N.pfq_series, num, den, z, max_terms=max_terms) \
            == _jet_outcome(_ref_pfq_jet, num, den, z, max_terms=max_terms), \
            (num, den, z)


# ---------------------------------------------------------------------------
# Analytic continuation of 2F1
# ---------------------------------------------------------------------------

ABC = (0.27 + 0.05j, 0.63 - 0.1j, 1.4 + 0.08j)


@pytest.mark.parametrize("z", [0.55 + 0.3j, -2.5 + 1j, 0.9 + 0.05j,
                               3 + 2j, -8.0, 0.2 - 4j, 0.97 + 0.01j])
def test_2f1_euler_transformation(z):
    a, b, c = ABC
    lhs = N.hyp2f1(a, b, c, z)
    rhs = (1 - z) ** (c - a - b) * N.hyp2f1(c - a, c - b, c, z)
    assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("z", [0.55 + 0.3j, -2.5 + 1j, 3 + 2j, 0.2 - 4j])
def test_2f1_pfaff_transformation(z):
    a, b, c = ABC
    lhs = N.hyp2f1(a, b, c, z)
    rhs = (1 - z) ** (-a) * N.hyp2f1(a, c - b, c, z / (z - 1))
    assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), abs(rhs))


def test_2f1_matches_series_inside_disc():
    a, b, c = ABC
    z = 0.35 + 0.15j
    assert abs(N.hyp2f1(a, b, c, z)
               - N.hyp2f1_series(a, b, c, z)) < 1e-13


def test_1f1_kummer_transformation():
    th, al = 0.23, -0.31
    for w in (2.1 + 0.7j, -3.4 + 1.2j, -7.5):
        lhs = N.eval_1F1(th, al, w)
        a = (1 + al + th) / 2
        c = 1 + al
        rhs = cmath.exp(w) * N.hyp1f1_series(c - a, c, -w)
        assert abs(lhs - rhs) < 1e-11 * abs(lhs)


def test_2f0_asymptotic_error_estimate():
    val, est = N.eval_2F0_asymptotic(0.3, 0.7, -0.05)
    # first two terms: 1 + ab z
    assert est < 1e-6
    assert abs(val - 1) < 0.05
    assert abs(val - (1 + 0.3 * 0.7 * (-0.05))) < 1e-2


def test_tricomi_dual_route():
    # asymptotic-series route vs direct Laplace quadrature
    th, al, w = 0.23, -0.31, 6.0 + 2.0j
    a1 = N.eval_tricomi(th, al, w)
    a2 = Q.tricomi_solution(th, al, w, 1e-12)
    assert abs(a1 - a2) < 1e-10 * abs(a1)


def test_hermite_dual_route():
    la, w = 0.37, 5.5 + 1.0j
    a1 = N.eval_hermite_S(la, w)
    a2 = Q.hermite_S_solution(la, w, 1e-12)
    assert abs(a1 - a2) < 1e-10 * abs(a1)


def test_cut_domain_errors():
    with pytest.raises(N.DomainError):
        N.eval_hermite_S(0.3, -1.0)
    with pytest.raises(N.DomainError):
        N.eval_tricomi(0.2, 0.3, -2.0)
    with pytest.raises(N.DomainError):
        N.eval_conf_minus_inf(0.2, 0.3, 2.0)
    with pytest.raises(N.DomainError):
        N.eval_0f1_tilde(0.3, -0.5)


# ---------------------------------------------------------------------------
# Normalized variants
# ---------------------------------------------------------------------------

def test_normalizations_consistent():
    al, be, mu, w = 0.21, 0.13, 0.34, 0.3 + 0.2j
    f = N.eval_2F1(al, be, mu, w)
    assert abs(N.bold_F_2f1(al, be, mu, w) - f / N.gamma(1 + al)) < 1e-13 * abs(f)
    fi = N.FI_2f1(al, be, mu, w)
    ratio = N.gamma((1 + al + be - mu) / 2) * N.gamma((1 + al - be + mu) / 2) \
        / N.gamma(1 + al)
    assert abs(fi - ratio * f) < 1e-12 * abs(fi)


def test_gegenbauer_even_in_lambda():
    al, la, w = 0.27, 0.41, 0.2 + 0.3j
    s1 = N.eval_geg_S(al, la, w)
    s2 = N.eval_geg_S(al, -la, w)
    assert abs(s1 - s2) < 1e-12 * abs(s1)


def test_hermite_SI_scaling():
    la, w = 0.3, 5.0
    assert abs(N.SI_hermite(la, w)
               - 2 ** (-la - 0.5) * N.gamma(la + 0.5) * N.eval_hermite_S(la, w)) \
        < 1e-12


# ---------------------------------------------------------------------------
# Connection data
# ---------------------------------------------------------------------------

def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def test_connection_det_2f1_closed_form():
    al, be, mu = 0.27, 0.61, 0.43
    A = N.connection_matrix_2f1(al, be, mu)
    assert abs(_det2(A) - N.connection_det_2f1(al, be, mu)) < 1e-13


def test_connection_inverse_2f1_is_parameter_swap():
    al, be, mu = 0.27, 0.61, 0.43
    A = N.connection_matrix_2f1(al, be, mu)
    B = N.connection_matrix_2f1(mu, be, al)
    for i in range(2):
        for j in range(2):
            prod = sum(A[i][k] * B[k][j] for k in range(2))
            assert abs(prod - (1 if i == j else 0)) < 1e-13


def test_connection_inverse_1f1_closed_form():
    th, al = 0.23, 0.37
    A = N.connection_matrix_1f1(th, al)
    Ainv = N.connection_matrix_1f1_inverse(th, al)
    for i in range(2):
        for j in range(2):
            prod = sum(A[i][k] * Ainv[k][j] for k in range(2))
            assert abs(prod - (1 if i == j else 0)) < 1e-13
    assert abs(_det2(A) - N.connection_det_1f1(th, al)) < 1e-13


def test_connection_coeffs_0f1():
    al = 0.29
    cp, cm = N.connection_coeffs_0f1(al)
    assert abs(cp + math.sqrt(math.pi) / N.sinpi(al)) < 1e-13
    assert abs(cm - math.sqrt(math.pi) / N.sinpi(al)) < 1e-13


def test_connection_inverse_det_reciprocal():
    al, be, mu = 0.27, 0.61, 0.43
    # det(A^{-1}) = 1/det(A) via the parameter-swap inverse
    d1 = N.connection_det_2f1(al, be, mu)
    d2 = N.connection_det_2f1(mu, be, al)
    assert abs(d1 * d2 - 1) < 1e-13


# ---------------------------------------------------------------------------
# Standard solutions
# ---------------------------------------------------------------------------

SOLUTION_COUNTS = {"2f1": 6, "gegenbauer": 4, "1f1": 4, "hermite": 2, "0f1": 3}
SOLUTION_PARAMS = {"2f1": (0.27, 0.33, 0.41), "gegenbauer": (0.27, 0.19),
                   "1f1": (0.23, 0.37), "hermite": (0.31,), "0f1": (0.29,)}


@pytest.mark.parametrize("family", sorted(SOLUTION_COUNTS))
def test_standard_solution_counts(family):
    sols = N.standard_solutions(family, SOLUTION_PARAMS[family])
    assert len(sols) == SOLUTION_COUNTS[family]
    keys = [d.key for d in sols]
    assert len(keys) == len(set(keys))
    for d in sols:
        assert d.family == family
        assert len(d.expressions) >= 1


def test_kummer_expressions_agree_spot():
    al, be, mu = 0.27, 0.33, 0.41
    w = 0.4 + 0.6j
    vals = [N.eval_kummer_expression("at0_1", r, al, be, mu, w)
            for r in range(4)]
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-11 * abs(vals[0])


def test_solution_expressions_agree_spot():
    sols = {d.key: d for d in N.standard_solutions("1f1", (0.23, 0.37))}
    d = sols["at0_1"]
    w = 0.7 + 0.5j
    v0 = N.eval_solution(d, w, 0)
    v1 = N.eval_solution(d, w, 1)
    assert abs(v0 - v1) < 1e-10 * abs(v0)
