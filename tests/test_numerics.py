"""Numeric layer: gamma, series, analytic continuation routes, normalized
solutions and connection data."""

import cmath
import math
import random
import re
import struct
import sys

import pytest

from hyperclass import numerics as N
from hyperclass import quadrature as Q
from hyperclass.jet import Jet

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


@pytest.mark.parametrize("x", [171.5, 172, 200, -171.5, -200.5])
@pytest.mark.parametrize("fn", [N.gamma, N.rgamma])
def test_real_gamma_at_the_edge_of_the_double_range(fn, x):
    # a finite normal double or OverflowError, never inf, nan, 0, a
    # subnormal or ZeroDivisionError: of these only Gamma(171.5) fits
    if (fn, x) == (N.gamma, 171.5):
        assert fn(x) == math.gamma(x) == pytest.approx(9.4834e307, rel=1e-4)
    else:
        with pytest.raises(OverflowError):
            fn(x)


def test_gamma_overflow_in_an_evaluator_is_a_domain_error():
    # Gamma and 1/Gamma raise OverflowError, but an evaluator that meets
    # one refuses with the typed error: every route, a forced route and a
    # normalization prefactor
    with pytest.raises(N.DomainError):
        N.eval_hermite_S(300, 2)
    with pytest.raises(N.DomainError):
        N.evaluate("hermite", (300,), 2, method="quadrature")
    with pytest.raises(N.DomainError):
        N.evaluate("1f1", (0.3, 200), 1, "bold")


@pytest.mark.parametrize("x", [-170.55, -170.6, -170.9, -171.3, -171.55])
def test_real_rgamma_where_gamma_is_not_a_normal_double(x):
    # Gamma(x) is subnormal from about -170.6 down, where 1/Gamma(x) is a
    # normal double until it passes the double range (at -171.3, -171.55)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        ref = 1 / mp.gamma(x)
        if abs(ref) > sys.float_info.max:
            with pytest.raises(OverflowError):
                N.rgamma(x)
            return
        r = N.rgamma(x)
        assert r.imag == 0
        bound = N._EPS * N._gamma_rounding(complex(x), 0)
        assert abs((r.real - ref) / ref) <= bound


def _real_gamma_grid():
    rng = random.Random(2701)
    near_poles = [-k + d for k in range(8) for e in (1e-11, 1e-6, 1e-3)
                  for d in (e, -e)]
    return [rng.uniform(-170, 171) for _ in range(400)] + near_poles


def test_real_gamma_against_mpmath():
    # Gamma and 1/Gamma at a real x within the bound that the connection
    # estimates charge for them
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for x in _real_gamma_grid():
            ref = mp.gamma(x)
            bound = N._EPS * N._gamma_rounding(complex(x), 0)
            g, r = N.gamma(x), N.rgamma(x)
            assert g.imag == 0 == r.imag
            assert abs((g.real - ref) / ref) <= bound, x
            assert abs((r.real - 1 / ref) * ref) <= bound, x


def _lanczos_gamma_reference(z):
    """gamma by the Lanczos sum and the reflection formula on the whole
    plane, as it was before the real axis went to math.gamma: the
    reference that every complex argument must reproduce bitwise."""
    z = complex(z)
    if N.is_nonpositive_integer(z):
        raise N.GammaPoleError(f"gamma pole at {z}")
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z)
                          * _lanczos_gamma_reference(1.0 - z))
    z -= 1.0
    s = N._LANCZOS_C[0]
    for k in range(1, len(N._LANCZOS_C)):
        s += N._LANCZOS_C[k] / (z + k)
    t = z + N._LANCZOS_G + 0.5
    return N._SQRT_2PI * t ** (z + 0.5) * cmath.exp(-t) * s


def test_complex_gamma_is_the_lanczos_sum_bitwise():
    rng = random.Random(2702)
    zs = [complex(rng.uniform(-40, 40), rng.uniform(-10, 10))
          for _ in range(300)]
    zs += [complex(-k + rng.uniform(-0.5, 0.5),
                   s * 10.0 ** -rng.randint(1, 11))
           for k in range(8) for s in (1, -1)]
    for z in zs:
        ref = _lanczos_gamma_reference(z)
        assert _bits(N.gamma(z)) == _bits(ref), z
        assert _bits(N.rgamma(z)) == _bits(1.0 / ref), z


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


def test_sinpi():
    assert abs(N.sinpi(1)) < 1e-15
    assert abs(N.sinpi(7)) < 1e-13
    assert abs(N.sinpi(0.5) - 1) < 1e-15
    z = 0.3 + 0.2j
    assert abs(N.sinpi(z) - cmath.sin(math.pi * z)) < 1e-14


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


def _ref_pfq_jet(num, den, z):
    """The series summed term by term as a loop over Jet objects: an oracle
    for the Jets of eval_1F1 and eval_0F1, which take their coefficients
    from root shifts."""
    num = [complex(p) for p in num]
    den = [complex(q) for q in den]
    term = Jet.constant(1.0, z.center, z.order)
    total = term
    small = 0
    for k in range(N.MAX_SERIES_TERMS):
        fac = 1.0 + 0.0j
        for p in num:
            fac *= p + k
        for q in den:
            fac /= q + k
        term = term * z * (fac / (k + 1))
        total = total + term
        scale = max(abs(total.value()), 1e-300)
        if abs(term.value()) < 1e-17 * scale:
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise N.ConvergenceError("series did not converge", best=total)


# Lie parameters of 1F1 (theta, alpha) and 0F1 (alpha); (-5.5, 0.5) is the
# polynomial 1F1(-2; 1.5; w)
_SERIES_SHAPES = ((0.4, 0.2), (-0.2 - 0.5j, 0.6 + 0.1j), (-0.55,),
                  (-5.5, 0.5), (0.2 - 0.3j, 1.5))

_SERIES_SPECIAL = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), -1.0 + 0j,
                   complex(math.inf, 0.0), complex(math.nan, 1.0),
                   1e300 + 1e300j]


def _series_shape(lie):
    """The evaluator of the Lie parameters `lie`, fn(w), and the (num, den)
    of its series."""
    if len(lie) == 2:
        th, al = lie
        return (lambda w: N.eval_1F1(th, al, w),
                (((1 + al + th) / 2,), (1 + al,)))
    (al,) = lie
    return lambda w: N.eval_0F1(al, w), ((), (1 + al,))


def _series_jet(rng, order, special_rate):
    z0 = cmath.rect(rng.uniform(0.0, 0.7), rng.uniform(-math.pi, math.pi))
    coeffs = [z0]
    for _ in range(order):
        if rng.random() < special_rate:
            coeffs.append(rng.choice(_SERIES_SPECIAL))
        else:
            coeffs.append(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
    return Jet(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), coeffs)


def _mp_pfq_jet(mp, num, den, z):
    """The Taylor coefficients of pFq at z0 = z.coeffs[0], by mpmath's
    numerical differentiation, composed with z - z0."""
    zc = [mp.mpc(c) for c in z.coeffs]
    taylor = mp.taylor(lambda t: mp.hyper(num, den, t), zc[0], z.order)
    out = [mp.mpc(0)] * len(zc)
    power = [mp.mpc(1)] + [mp.mpc(0)] * z.order      # (z - z0)^n
    for c in taylor:
        out = [a + c * b for a, b in zip(out, power)]
        power = [sum((zc[j] * power[k - j] for j in range(1, k + 1)),
                     mp.mpc(0)) for k in range(len(zc))]
    return out


def _normwise(got, ref):
    return max(abs(g - r) for g, r in zip(got, ref)) / max(map(abs, ref))


def test_series_jets_match_mpmath_taylor_coefficients():
    # every third Jet is composed, 4 sqrt(w) as in the 0F1 solutions' 1F1
    # expressions, whose coefficients past the first are all nonzero
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(61018)
    worst = 0.0
    with mpmath.workdps(40):
        for trial in range(60):
            fn, (num, den) = _series_shape(
                _SERIES_SHAPES[trial % len(_SERIES_SHAPES)])
            z = _series_jet(rng, trial % 5, special_rate=0.0)
            if trial % 3 == 0:
                z = 4 * N.jsqrt(z + 1)
            got = fn(z)
            assert isinstance(got, Jet) and got.center == z.center
            ref = _mp_pfq_jet(mpmath, num, den, z)
            worst = max(worst, float(_normwise(got.coeffs, ref)))
    assert worst <= 1e-14, worst


def test_series_jets_match_the_term_by_term_reference():
    # a Jet with a non-finite coefficient is refused, and so is a finite
    # one where the oracle's coefficients overflow, as at the fixed point;
    # every other one matches the term-by-term oracle
    with pytest.raises(N.DomainError, match="non-finite"):
        N.evaluate("1f1", (0.4, 0.2),
                   Jet(0, [0.3 + 0.2j, 1e300 + 1e300j, 1.0]))
    rng = random.Random(61018)
    refused = overflowed = 0
    for trial in range(150):
        lie = _SERIES_SHAPES[trial % len(_SERIES_SHAPES)]
        fn, (num, den) = _series_shape(lie)
        z = _series_jet(rng, trial % 5, special_rate=0.2)
        finite = all(map(cmath.isfinite, z.coeffs))
        ref = _ref_pfq_jet(num, den, z).coeffs if finite else None
        if not finite or not all(map(cmath.isfinite, ref)):
            refused += not finite
            overflowed += finite
            with pytest.raises(N.DomainError, match="non-finite"):
                fn(z)
            continue
        got = fn(z)
        assert got.center == z.center and got.order == z.order
        assert _normwise(got.coeffs, ref) <= 1e-14, (lie, z)
    assert refused and overflowed


def test_series_jet_of_order_zero_is_a_jet():
    z = Jet(0.25 + 0.1j, [0.25 + 0.1j])
    for lie in _SERIES_SHAPES:
        fn, _ = _series_shape(lie)
        got = fn(z)
        assert isinstance(got, Jet) and got.order == 0
        assert got.coeffs[0] == fn(0.25 + 0.1j)


def _sum_outcome(got):
    total, converged = got
    return struct.pack("<dd", total.real, total.imag), converged


@pytest.mark.parametrize("n_num", [2, 1, 0])
def test_written_out_series_match_the_generic_loop_bitwise(n_num):
    # the (2,1), (1,1) and (0,1) loops of _pfq_sum against the generic one
    rng = random.Random(1207 + n_num)

    def draw(lo, hi):
        return complex(rng.uniform(lo, hi), rng.uniform(lo, hi))

    reach = {2: 0.95, 1: 20.0, 0: 40.0}[n_num]
    cases = []
    for trial in range(300):
        num = [draw(-3, 3) for _ in range(n_num)]
        den = [draw(-3, 3)]
        z = cmath.rect(rng.uniform(0.0, reach), rng.uniform(-math.pi, math.pi))
        if trial % 10 == 0:
            z = rng.choice(_SERIES_SPECIAL)
        if n_num and trial % 10 == 5:
            # an infinite upper parameter: both sums turn non-finite alike
            num[0] = complex(math.inf, rng.uniform(-1, 1))
        # a few stop at max_terms and return (best, False)
        max_terms = 6 if trial % 7 == 0 else N.MAX_SERIES_TERMS
        cases.append((num, den, z, max_terms))
    if n_num:
        # a terminating polynomial, also outside the disk of convergence
        cases.append(([-4 + 0j] + [draw(-3, 3)] * (n_num - 1), [1.5 + 0j],
                      3.5 - 2j, N.MAX_SERIES_TERMS))
    outcomes = set()
    for num, den, z, max_terms in cases:
        got = N._pfq_sum(num, den, z, 1e-17, max_terms)
        ref = N._pfq_sum_generic(num, den, z, 1e-17, max_terms)
        assert _sum_outcome(got) == _sum_outcome(ref), (num, den, z)
        outcomes.add(got[1])
    assert outcomes == {True, False}
    if n_num:
        poly = N._pfq_sum(*cases[-1][:3], 1e-17, N.MAX_SERIES_TERMS)
        assert poly[1] and cmath.isfinite(poly[0])


def _generic_terms(num, den, z, tol, max_terms):
    """The terms of `_pfq_sum_generic`, the first term 1 included, up to
    where it stops."""
    terms = [1.0 + 0.0j]
    total = 1.0 + 0.0j
    comp = 0.0j
    small = 0
    for k in range(max_terms):
        fac = 1.0 + 0.0j
        for p in num:
            fac *= p + k
        for q in den:
            fac /= q + k
        terms.append(terms[-1] * z * fac / (k + 1))
        y = terms[-1] - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(terms[-1]) < tol * max(abs(total), 1e-300):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
    return terms


@pytest.mark.parametrize("n_num", [1, 0])
def test_written_out_sums_track_the_largest_term(n_num):
    # the (1,1) and (0,1) loops also return max |term| of their sum
    rng = random.Random(1313 + n_num)
    outcomes = set()
    for trial in range(300):
        num = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
               for _ in range(n_num)]
        den = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))]
        z = cmath.rect(rng.uniform(0.0, 20.0 * (1 + n_num)),
                       rng.uniform(-math.pi, math.pi))
        max_terms = 6 if trial % 7 == 0 else N.MAX_SERIES_TERMS
        if n_num and trial % 10 == 5:
            num[0] = complex(-rng.randrange(6), 0.0)    # a polynomial
        total, converged, big = N._WRITTEN_OUT[n_num, 1](
            *num, *den, z, 1e-17, max_terms)
        assert (total, converged) == N._pfq_sum(num, den, z, 1e-17,
                                                max_terms)
        terms = _generic_terms(num, den, z, 1e-17, max_terms)
        assert big == max(abs(t) for t in terms), (num, den, z)
        outcomes.add(converged)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# Analytic continuation of 2F1
# ---------------------------------------------------------------------------

ABC = (0.27 + 0.05j, 0.63 - 0.1j, 1.4 + 0.08j)


@pytest.mark.parametrize("p", [(0.25 + 0.5j, -1.5 + 0.125j, 3.75 - 2j),
                               (-0.5j, 2.0, -0.375 + 1.25j),
                               (0j, 0j, 0j)])
def test_lie_abc_inverts_the_family_table(p):
    # numerics' Lie -> classical map is the inverse of the table's
    # classical -> Lie map; dyadic parameters make the round trip exact
    from hyperclass.tables import PARAMS
    assert PARAMS["2f1"].to_lie(*N._lie_abc(*p)) == p


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


def test_hermite_on_the_negative_axis():
    # S_lambda is entire (the Hermite equation has no finite singular
    # point); these quadrature values agree with mpmath's
    # 2^{la+1/2} H_{-la-1/2}(w) to within 6e-16 relative.  Auto takes the
    # certified connection series at w^2 there, within its estimate.
    for w, v in ((-1.0, 6.910597032149581), (0.0, 1.6586245974774603),
                 (-3.0, 17371.473270154413)):
        assert N._hermite_S(0.3, w, 1e-11, "quadrature")[:2] \
            == (v, "quadrature")
        value, route, est = N._hermite_S(0.3, w, 1e-11)
        assert route == "series" and abs(value - v) <= est * abs(v)
        assert N.eval_hermite_S(0.3, w) == value
        with pytest.raises(N.DomainError):
            N._hermite_S(0.3, w, 1e-11, "asymptotic")
    # at |w| >= 4 auto does not take the asymptotic sum, which is wrong
    # there
    assert N._hermite_S(0.3, -6.0, 1e-11)[1] != "asymptotic"


@pytest.mark.parametrize("w", [-30.0, -27.0 + 0j, -30.0 + 1.0j,
                               Jet.variable(-28.0, 2)])
def test_hermite_overflowing_integrand_raises(w):
    # past Re w ~ -26.6 e^{-s^2-2sw} overflows a double at some node: a
    # typed error, not a sum over the nodes that did not overflow.  A Jet
    # reaches the quadrature through the root, as scalars
    if not isinstance(w, Jet):
        with pytest.raises(N.DomainError, match="overflows"):
            Q.hermite_S_solution(0.3, w)
    with pytest.raises(N.DomainError, match="overflows"):
        N._hermite_S(0.3, w, 1e-11, "quadrature")


def test_hermite_dual_route():
    la, w = 0.37, 5.5 + 1.0j
    a1 = N.eval_hermite_S(la, w)
    a2 = Q.hermite_S_solution(la, w, 1e-12)
    assert abs(a1 - a2) < 1e-10 * abs(a1)


def _hermite_reference(mp, la, w):
    """2^{la+1/2} H_{-la-1/2}(w) from mpmath at 30 digits.  (w times
    hyperu(la/2+1/4, 1/2, w^2) is on the wrong sheet at Re w < 0.)"""
    with mp.workdps(30):
        return complex(mp.power(2, la + 0.5)
                       * mp.hermite(-la - 0.5, mp.mpc(w)))


def test_hermite_series_route_against_mpmath():
    # S_lambda(w) = U_{la,-1/2}(w^2) by the connection series with w for
    # (w^2)^{1/2}, or at Re w > 0 by the continued fraction: every value
    # they return lies within its estimate, on the whole plane
    mp = pytest.importorskip("mpmath")
    routes = {}
    for la in (-0.4, -0.25, -0.1, 0.05, 0.2, 0.35):
        for r in (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 15.0,
                  20.0):
            for k in range(18):
                w = cmath.rect(r, math.pi * (k / 9 - 1))
                value, route, est = N._hermite_S(la, w, 1e-11)
                routes[route] = routes.get(route, 0) + 1
                if route in ("series", "cf"):
                    ref = _hermite_reference(mp, la, w)
                    assert abs(value - ref) <= est * abs(ref), (la, w, est)
                    assert est <= 1e-11
    assert routes["series"] > 500 and routes["cf"] > 60
    # the continued fraction certifies every point at Re w >= 2 that the
    # series and the 2F0 sum do not; the quadrature is left to Re w < 2
    assert routes["quadrature"] > 20


@pytest.mark.parametrize("w", [-5 + 0.1j, -10 + 1j, -20 + 0.5j, 5j,
                               0.1 + 5j])
def test_hermite_past_the_stokes_lines_takes_the_series(w):
    # the asymptotic sum's estimate misses the e^{w^2} term here: at the
    # first three points it returned a value off by a relative 1.0, at the
    # last two by 5e-11 against an estimate of 9e-12
    mp = pytest.importorskip("mpmath")
    value, route, est = N._hermite_S(0.3, w, 1e-11)
    ref = _hermite_reference(mp, 0.3, w)
    assert route == "series"
    assert abs(value - ref) <= est * abs(ref)


def test_hermite_auto_at_zero_and_far_on_the_negative_axis():
    assert N._hermite_S(0.3, 0, 1e-11)[1] == "series"
    assert N.eval_hermite_S(0.3, 0.0) == N._hermite_S(0.3, 0, 1e-11)[0]
    # the series overflows and the quadrature integrand too: a typed error,
    # never inf or NaN
    with pytest.raises(N.DomainError):
        N.eval_hermite_S(0.3, -30.0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1(e): the asymptotic "
                   "sum's estimate misses the e^{w^2} Stokes term")
@pytest.mark.parametrize("r, phi", [(7.0, 2.5), (10.0, -2.6), (12.0, 2.8)])
def test_hermite_asymptotic_sum_in_the_stokes_band(r, phi):
    # 2.0 < |arg w| < 2.9 at |w| >= 5: the series does not certify and auto
    # takes the sum, which returns a value off by a relative 1.0
    mp = pytest.importorskip("mpmath")
    w = cmath.rect(r, phi)
    value, _, est = N._hermite_S(0.3, w, 1e-11)
    ref = _hermite_reference(mp, 0.3, w)
    assert abs(value - ref) <= est * abs(ref)


def test_0f1_tilde_skips_only_series_that_cannot_certify(monkeypatch):
    # at Re w > 0, where _EPS e^{4 Re sqrt w + 3} misses tol, _0f1_tilde
    # integrates without the series: over the perfbench 0f1_tilde box no
    # such point has a series estimate within tol
    rng = random.Random(1701)
    tol = 1e-11
    skipped = []
    for _ in range(2400):
        al = rng.choice((-1, 1)) * rng.uniform(0.1, 0.45)
        w = cmath.rect(rng.uniform(0.5, 10.0), rng.uniform(-1.2, 1.2))
        est = N._0f1_tilde_series(al, w)[1]
        if N._EPS * math.exp(4 * cmath.sqrt(w).real + 3) > tol:
            assert est > tol, (al, w, est)
            skipped.append((al, w))
        elif est <= tol:
            assert N._0f1_tilde(al, w, tol)[1] == "series"
    assert len(skipped) > 1000
    # far out, where the asymptotic sum fails at a large alpha, the bound
    # is past a double's range: it is capped, not an OverflowError
    assert N._0f1_tilde(100.0, 4e4, tol)[1] == "quadrature"
    # and such a point does not sum the series at all: the continued
    # fraction gives its value
    monkeypatch.setattr(N, "_0f1_tilde_series", None)
    for al, w in skipped[:3]:
        assert N._0f1_tilde(al, w, tol)[1] == "cf"


def test_cut_domain_errors():
    # S_lambda has no cut: see test_hermite_on_the_negative_axis
    with pytest.raises(N.DomainError):
        N.eval_tricomi(0.2, 0.3, -2.0)
    with pytest.raises(N.DomainError):
        N.eval_conf_minus_inf(0.2, 0.3, 2.0)
    with pytest.raises(N.DomainError):
        N.eval_0f1_tilde(0.3, -0.5)


def _solution_reference(mp, name, params, w):
    """mpmath at 30 digits: hyperu for the confluent solutions at +-inf,
    2/sqrt(pi) w^(-al/2) K_al(2 sqrt w) for 0F1-tilde."""
    with mp.workdps(30):
        ps = [mp.mpf(p) for p in params]
        w = mp.mpc(w)
        if name == "tricomi":
            th, al = ps
            v = mp.hyperu((1 + al + th) / 2, 1 + al, w)
        elif name == "conf_minus_inf":
            th, al = ps
            v = mp.exp(w) * mp.hyperu((1 + al - th) / 2, 1 + al, -w)
        else:
            (al,) = ps
            v = 2 / mp.sqrt(mp.pi) * mp.power(w, -al / 2) \
                * mp.besselk(al, 2 * mp.sqrt(w))
        return complex(v)


_ROUTED = {"tricomi": N._tricomi, "conf_minus_inf": N._conf_minus_inf,
           "0f1_tilde": N._0f1_tilde}


def _draw_alpha(rng, i):
    """Generic alpha, or within 1e-8 to 1e-3 of -1, 0 or 1."""
    if i % 2:
        return rng.choice((-1, 0, 1)) \
            + rng.choice((-1, 1)) * 10 ** rng.uniform(-8, -3)
    return rng.choice((-1, 1)) * rng.uniform(0.05, 0.95)


@pytest.mark.parametrize("name", sorted(_ROUTED))
def test_connection_series_against_mpmath(name):
    # each series or continued-fraction value lies within its own estimate
    # of mpmath; where both estimates miss tol the evaluator integrates
    # instead, or raises
    mp = pytest.importorskip("mpmath")
    rng = random.Random(1301 + sorted(_ROUTED).index(name))
    routes = {}
    for i in range(200):
        al = _draw_alpha(rng, i)
        if name == "0f1_tilde":
            params = (al,)
            w = cmath.rect(rng.uniform(0.5, 10.0), rng.uniform(-3.1, 3.1))
        else:
            th = rng.uniform(-0.9, 0.9)
            if i % 5 == 4:
                # theta at a gamma pole of (1 + theta -+ alpha)/2
                th = rng.choice((1, -1)) * al - 1
            params = (th, al)
            w = cmath.rect(rng.uniform(0.5, 3.5), rng.uniform(-3.1, 3.1))
            if name == "conf_minus_inf":
                w = -w
        try:
            value, route, est = _ROUTED[name](*params, w, 1e-11)
        except N.NumericsError:
            route = "error"
        routes[route] = routes.get(route, 0) + 1
        assert route in ("series", "cf", "quadrature", "error")
        if route in ("series", "cf"):
            ref = _solution_reference(mp, name, params, w)
            assert abs(value - ref) <= est * abs(ref), (params, w, est)
            assert est <= 1e-11
    assert routes.get("series", 0) > 30 and routes.get("cf", 0) > 3
    if name == "0f1_tilde":
        # the continued fraction at 4 sqrt w, in the right half-plane,
        # certified every point the series did not: none integrates, and
        # none at Re w <= 0 raises
        assert "quadrature" not in routes and "error" not in routes
    else:
        assert routes.get("quadrature", 0) > 3


def test_connection_series_routes():
    w = 1.2 + 0.7j
    for name, params, w, at_zero in (
            ("tricomi", (0.3, 0.2), w, "quadrature"),
            ("conf_minus_inf", (0.3, 0.2), -w, "quadrature"),
            ("0f1_tilde", (0.3,), w, "cf")):
        value, route, est = _ROUTED[name](*params, w, 1e-11)
        assert route == "series" and est < 1e-12
        # the public evaluators return the routed value
        assert getattr(N, "eval_" + name)(*params, w) == value
        # a Jet takes the route of its value from the scalar ladder
        jet = _ROUTED[name](*params, Jet.variable(w, 2), 1e-11)
        assert jet[1] == "series"
        assert abs(jet[0].coeffs[0] - value) < 1e-10 * abs(value)
        # a degenerate point (sin(pi alpha) = 0) is not taken; the continued
        # fraction takes it where it converges (at 4 sqrt w for 0F1-tilde,
        # not at 1.2 + 0.7i, where it overflows)
        assert _ROUTED[name](*params[:-1], 0.0, w, 1e-11)[1] == at_zero


# ---------------------------------------------------------------------------
# Steed's continued fraction for the Tricomi solution
# ---------------------------------------------------------------------------

def _cf_steps(err) -> int:
    return int(re.search(r"(\d+) steps", str(err)).group(1))


def test_tricomi_cf_within_its_estimate_over_a_wide_box():
    # complex a, b in [-3, 3] x [-2, 2], |z| 0.5 to 60, |arg z| <= 3.1: each
    # value the continued fraction certifies lies within its estimate of
    # mpmath, and each failure is a ConvergenceError within the step cap
    mp = pytest.importorskip("mpmath")
    rng = random.Random(1801)
    certified = aside = 0
    for _ in range(300):
        a = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        b = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        z = cmath.rect(rng.uniform(0.5, 60.0), rng.uniform(-3.1, 3.1))
        al = b - 1
        try:
            value, est = N._tricomi_cf(2 * a - 1 - al, al, z)
        except N.ConvergenceError as err:
            assert _cf_steps(err) <= N._CF_MAX_TERMS
            aside += 1
            continue
        assert cmath.isfinite(value)
        if est > 1e-11:
            aside += 1
            continue
        certified += 1
        with mp.workdps(30):
            ref = complex(mp.hyperu(a, b, z))
        assert abs(value - ref) <= est * abs(ref), (a, b, z, est)
    assert certified > 150 and aside > 30


def test_tricomi_cf_within_its_estimate_near_the_cut():
    # |arg z| >= 2.9, a in [-6, 6] x [-4, 4]: where Re sqrt z is small the
    # steps can dip below _EPS |s| and rise again, and a stop there missed
    # the value by 86 times its estimate (a = -5.8 + 3.9i, b = -1.1 + 1.1i,
    # z = -18.5 - 0.26i, Re sqrt z = 0.03).  Such points raise before the
    # first step; every value certified, out to |z| = 2000, lies within its
    # estimate
    mp = pytest.importorskip("mpmath")
    rng = random.Random(1802)
    certified = 0
    for k in range(1000):
        a = complex(rng.uniform(-6, 6), rng.uniform(-4, 4))
        b = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        r = rng.uniform(0.5, 60.0) if k % 2 else \
            math.exp(rng.uniform(math.log(0.5), math.log(2000.0)))
        z = cmath.rect(r, rng.choice((-1, 1)) * rng.uniform(2.9, 3.14))
        al = b - 1
        try:
            value, est = N._tricomi_cf(2 * a - 1 - al, al, z)
        except N.ConvergenceError as err:
            if cmath.sqrt(z).real < N._CF_MIN_RE_SQRT:
                assert "at Re sqrt z" in str(err)
            continue
        assert cmath.sqrt(z).real >= N._CF_MIN_RE_SQRT
        if est > 1e-11:
            continue
        certified += 1
        with mp.workdps(30):
            ref = complex(mp.hyperu(a, b, z))
        assert abs(value - ref) <= est * abs(ref), (a, b, z, est)
    assert certified > 50


@pytest.mark.parametrize("z", [0.5, 0.5j, 1.2 + 0.7j, -9.9 + 1.4j,
                               -60 - 2.5j, 1.7])
def test_tricomi_cf_raises_where_it_cannot_converge(z):
    # at small |z| and near the cut Re sqrt z < _CF_MIN_RE_SQRT, and it
    # raises before the first step; at 1.7, just past that bound, s
    # overflows after 171 steps, before a step falls below _EPS |s|: a
    # typed error within the step cap, never NaN, and the ladder rejects
    # the cf step for the one after it
    with pytest.raises(N.NumericsError) as info:
        N._tricomi_cf(0.3, 0.2, z)
    assert _cf_steps(info.value) <= N._CF_MAX_TERMS
    if z != 1.7:
        assert "at Re sqrt z" in str(info.value)
    steps = [s for s in N._TRICOMI_STEPS if s.route in ("cf", "quadrature")]
    value, route, _ = N._ladder(steps, (0.3, 0.2, z), 1e-11)
    assert route == "quadrature"
    assert value == Q.tricomi_solution(0.3, 0.2, z, 1e-11)


def test_tricomi_cf_step_cap_bounds_a_failed_attempt(monkeypatch):
    # U(0.65, 1.2, 2) takes about 150 steps; a cap of 20 stops it there
    value, est = N._tricomi_cf(0.3, 0.2, 2.0)
    assert est <= 1e-11
    monkeypatch.setattr(N, "_CF_MAX_TERMS", 20)
    with pytest.raises(N.ConvergenceError, match="in 20 steps"):
        N._tricomi_cf(0.3, 0.2, 2.0)


def test_cf_takes_alpha_zero_and_never_a_jet():
    # sin(pi alpha) = 0 degenerates the connection series; the continued
    # fraction has no such point.  A Jet gets no continued fraction of its
    # own: its value comes from the scalar ladder, with that route.
    mp = pytest.importorskip("mpmath")
    for name, params, w in (("0f1_tilde", (0.0,), 1.2 + 0.7j),
                            ("tricomi", (-3.5, 0.0), 2 - 1j),
                            ("conf_minus_inf", (0.99, 0.0), -2 - 1j)):
        value, route, est = _ROUTED[name](*params, w, 1e-11)
        assert route == "cf" and est <= 1e-11
        ref = _solution_reference(mp, name, params, w)
        assert abs(value - ref) <= est * abs(ref)
        jet = _ROUTED[name](*params, Jet.variable(w, 2), 1e-11)
        assert jet[1] == "cf"
        assert abs(jet[0].coeffs[0] - value) < 1e-10 * abs(value)
    # Hermite at Re w >= 2 and |w| < 4 takes it first, on a Jet too
    w = 2.5 + 0.5j
    value, route, est = N._hermite_S(0.3, w, 1e-11)
    assert route == "cf"
    ref = _hermite_reference(mp, 0.3, w)
    assert abs(value - ref) <= est * abs(ref)
    jet = N._hermite_S(0.3, Jet.variable(w, 2), 1e-11)
    assert jet[1] == "cf"
    assert abs(jet[0].coeffs[0] - value) < 1e-10 * abs(value)


def test_hermite_tries_the_cf_first_only_at_re_w_at_least_2(monkeypatch):
    # the continued fraction takes about (18.4 / Re w)^2 steps: at Re w >= 2
    # and |w| < 4 it goes first, elsewhere in 2 <= |w| < 4 the series
    # certifies and no attempt is paid before it
    calls = []
    cf = N._tricomi_cf

    def counted(*args):
        calls.append(args)
        return cf(*args)

    monkeypatch.setattr(N, "_tricomi_cf", counted)
    for w, route, tried in ((2.5 + 0.5j, "cf", 1), (3.9 + 0.3j, "cf", 1),
                            (cmath.rect(2.5, 1.2), "series", 0),
                            (cmath.rect(3.5, -1.0), "series", 0),
                            (1.9 + 0.2j, "series", 0)):
        del calls[:]
        assert N._hermite_S(0.3, w, 1e-11)[1] == route, w
        assert len(calls) == tried, w


@pytest.mark.parametrize("w", [4.0, 4.5 + 0.5j, 4.2 - 1j])
def test_hermite_takes_the_cf_after_the_2f0_sum(w):
    # at |w| >= 4 and Re w >= 2, where neither the series nor the 2F0 sum
    # certifies, the continued fraction at z = w^2 does, before the
    # quadrature
    mp = pytest.importorskip("mpmath")
    value, route, est = N._hermite_S(0.05, w, 1e-11)
    assert route == "cf" and est <= 1e-11
    ref = _hermite_reference(mp, 0.05, w)
    assert abs(value - ref) <= est * abs(ref)


@pytest.mark.parametrize("la, w", [
    (0.05, 1.95 + 4j),
    (1.5795 + 0.3263j, 1.7185 - 0.6584j),
    (1.7302 - 0.672j, 1.8517 - 0.116j),
    (-0.3957 + 0.9472j, 1.7282 - 4.2217j),
])
def test_hermite_takes_the_cf_before_the_quadrature(la, w):
    # at _CF_MIN_RE_SQRT <= Re w < 2, where the cf is not tried first and
    # neither sum certifies, it is tried before the quadrature, which
    # would report tol as its estimate (ROADMAP item 15's Hermite box)
    mp = pytest.importorskip("mpmath")
    assert N._CF_MIN_RE_SQRT <= w.real < 2.0
    value, route, est = N._hermite_S(la, w, 1e-11)
    assert route == "cf" and est <= 1e-12
    ref = _hermite_reference(mp, la, w)
    assert abs(value - ref) <= est * abs(ref)


@pytest.mark.parametrize("w", [27j, 100j, 300j, 1000j, -40 + 1j])
def test_hermite_skips_a_series_whose_terms_do_not_fit(monkeypatch, w):
    # there the 1F1 terms of the connection series overflow and it ran to
    # MAX_SERIES_TERMS before the next route; now it is not summed at all,
    # with the same route and value.  (At -40 + 1i that route is the 2F0
    # sum, whose value misses the e^{w^2} Stokes term: ROADMAP item 1(e).)
    calls = []
    rounded = N._series_rounded

    def counted(*args):
        calls.append(args)
        return rounded(*args)

    monkeypatch.setattr(N, "_series_rounded", counted)
    got = N._hermite_S(0.3, w, 1e-11)
    assert calls == []
    monkeypatch.setattr(N, "_hermite_series_fits", lambda la, z: True)
    want = N._hermite_S(0.3, w, 1e-11)
    assert calls
    assert got == want


def test_no_integrable_laplace_variant_takes_the_certified_series():
    # (1 + theta -+ alpha).real <= 0.02 for both signs: no Laplace integral
    # converges, so a certified series gives the value
    mp = pytest.importorskip("mpmath")
    w = 1.5 + 0.8j
    for name, params, w in (("tricomi", (-1.0, 0.01), w),
                            ("tricomi", (-2.5, 0.3), 3 - 0.5j),
                            ("conf_minus_inf", (1.0, -0.01), -w),
                            ("conf_minus_inf", (2.2, 0.4), -2 - 1j)):
        fn = getattr(N, "eval_" + name)
        value, route, est = _ROUTED[name](*params, w, 1e-11)
        assert route == "series"
        ref = _solution_reference(mp, name, params, w)
        assert abs(value - ref) <= est * abs(ref)
        assert fn(*params, w) == value
        # where the series is not certified, the quadrature after raising
        # steps in theta
        value, route, _ = _ROUTED[name](*params, w, 1e-17)
        assert route == "quadrature"
        assert abs(value - ref) <= 1e-14 * abs(ref), (name, params)


@pytest.mark.parametrize("name, params, w", [
    ("tricomi", (-0.99, 0.0), 1 + 1j),
    ("tricomi", (-1.0, 0.0), 1.5 + 0.8j),
    # two raising steps
    ("tricomi", (-3.5, 0.0), 2 - 1j),
    ("conf_minus_inf", (0.99, 0.0), -1 - 1j),
    ("conf_minus_inf", (1.2, -0.1), -0.7 + 1.3j),
])
def test_no_laplace_variant_and_no_series_takes_raising_steps(name, params,
                                                              w):
    # alpha = 0 degenerates the connection series, and no Laplace integral
    # converges: U_{th,al} = (w + (1+th-al)/2) U_{th+2,al} - w U'_{th+2,al}.
    # Auto takes the continued fraction where it converges; the quadrature
    # takes the raising steps (at -infinity on U_{-th,al}(-w), 1f1:sym:03)
    mp = pytest.importorskip("mpmath")
    value, route, _ = _ROUTED[name](*params, w, 1e-11)
    if params[1] == 0.0:
        assert route in ("cf", "quadrature")
    ref = _solution_reference(mp, name, params, w)
    assert abs(value - ref) <= 1e-13 * abs(ref)
    th, al = params
    if name == "tricomi":
        quad = Q.tricomi_solution(th, al, w, 1e-11)
    else:
        quad = cmath.exp(w) * Q.tricomi_solution(-th, al, -w, 1e-11)
    assert abs(quad - ref) <= 1e-13 * abs(ref)


def test_raising_steps_against_mpmath():
    # the raising steps are scalar root shifts: U_{th,al} from U_{th+2,al}
    # and U_{th+3,al+1} (DLMF 13.3.10 and 13.3.22) at margins <= 0.02, and
    # S_la from S_{la+1} and S_{la+2} at Re la <= -0.49, where S_la(w) =
    # U(la/2 + 1/4, 1/2, w^2) at Re w > 0
    mp = pytest.importorskip("mpmath")
    th, al, w = -0.99, 0.0, 1 + 1j
    got = Q.tricomi_solution(th, al, w, 1e-12)
    with mp.workdps(30):
        want = complex(mp.hyperu((1 + al + th) / 2, 1 + al, w))
    assert abs(got - want) <= 1e-11 * abs(want)
    for la in (-0.8, -1.7 + 0.3j):
        got = Q.hermite_S_solution(la, w)
        with mp.workdps(30):
            want = complex(mp.hyperu(la / 2 + 0.25, 0.5, w * w))
        assert abs(got - want) <= 1e-11 * abs(want), la


# ---------------------------------------------------------------------------
# The route ladder
# ---------------------------------------------------------------------------

def _routes(steps):
    return [s.route for s in steps]


def test_route_order_is_data():
    # the order in which auto tries each evaluator's routes
    assert _routes(N._TRICOMI_STEPS) == _routes(N._0F1_TILDE_STEPS) \
        == ["asymptotic", "series", "cf", "quadrature"]
    # Hermite's continued fraction goes first at Re w >= 2 and |w| < 4,
    # and after the 2F0 sum at every other Re w >= _CF_MIN_RE_SQRT (about
    # 1.27): its guards let it run once
    assert _routes(N._HERMITE_STEPS) \
        == ["cf", "series", "asymptotic", "cf", "quadrature"]
    for w, order in ((3 + 1j, ["cf", "series", "quadrature"]),
                     (4.5 + 1j, ["asymptotic", "cf", "quadrature"]),
                     (1.5 + 4j, ["series", "asymptotic", "cf", "quadrature"]),
                     (1.5 + 1j, ["series", "cf", "quadrature"]),
                     (1.2 + 4j, ["series", "asymptotic", "quadrature"])):
        assert _routes(s for s in N._HERMITE_STEPS if s.guard is None
                       or s.guard(0.3, w, None)) == order
    # one is listed before and after inf, and its guards let it run once,
    # in the order of the bounds (see the test below)
    assert _routes(N._2F1_STEPS) \
        == ["series", "pfaff", "one", "inf", "one", "lopez_temme", "taylor"]
    # lopez_temme needs Re w < 1
    for w, order in ((2 + 0.5j, ["inf", "one", "taylor"]),
                     (1.5 + 0.5j, ["one", "inf", "taylor"]),
                     (0.5 + 0.9j, ["lopez_temme", "taylor"])):
        assert _routes(s for s in N._2F1_STEPS if s.guard is None
                       or s.guard(0.2, 0.1, 0.3, w, None)) == order


@pytest.mark.parametrize("w, order", [
    (2 + 0.5j, ["inf", "one"]),       # bounds 0.485 at infinity, 0.542 at 1
    (1.5 + 0.5j, ["one", "inf"]),     # bounds 0.632 at infinity, 0.447 at 1
])
def test_2f1_tries_inf_and_one_in_the_order_of_their_bounds(monkeypatch, w,
                                                           order):
    tried = []

    def degenerate(route):
        def fn(*args):
            tried.append(route)
            raise N.DegeneracyError(route)
        return fn

    monkeypatch.setattr(N, "_eval_2f1_inf_route", degenerate("inf"))
    monkeypatch.setattr(N, "_eval_2f1_one_route", degenerate("one"))
    assert N._eval_2F1_routed(0.2, 0.1, 0.3, w)[1:] == ("taylor", None)
    assert tried == order


def test_2f1_orders_inf_and_one_only_past_series_and_pfaff(monkeypatch):
    # the bounds that order inf and one are not computed where series or
    # pfaff answers
    calls = []
    bounds = N._far_bounds_2f1
    monkeypatch.setattr(N, "_far_bounds_2f1",
                        lambda w0: calls.append(w0) or bounds(w0))
    for w, route in ((0.3 + 0.1j, "series"), (-1.0, "pfaff"),
                     (2 + 0.5j, "inf")):
        del calls[:]
        assert N._eval_2F1_routed(0.2, 0.1, 0.3, w)[1] == route
        assert (len(calls) > 0) == (route == "inf")


def _ring_point(rng):
    """A w on the ring |w| ~ |1 - w| ~ 1 around e^{+-i pi/3}, where every
    Moebius argument of Kummer's solutions has modulus near 1."""
    return complex(rng.uniform(0.3, 0.7),
                   rng.choice((-1, 1)) * rng.uniform(0.7, 1.2))


def _lopez_temme_point(rng):
    """A w with Re w < 1 and |w / (w - 2)| <= 0.75."""
    while True:
        w = complex(rng.uniform(-4.0, 1.0), rng.uniform(-4.0, 4.0))
        if w.real < 1 and abs(w / (w - 2)) <= N.INNER_RADIUS:
            return w


def _lopez_temme_cases(rng):
    """(al, be, mu, w): the ring, integer mu and beta, and |alpha| up to
    2.5, 40 of each."""
    def lie(r):
        return complex(rng.uniform(-r, r), rng.uniform(-0.3, 0.3))
    for _ in range(40):
        yield lie(1.0), lie(1.0), lie(1.0), _ring_point(rng)
    for _ in range(40):
        yield (lie(1.5), float(rng.choice((-1, 0, 1))),
               float(rng.randint(-2, 2)), _lopez_temme_point(rng))
    for _ in range(40):
        yield lie(2.5), lie(2.5), lie(2.5), _lopez_temme_point(rng)


def test_lopez_temme_against_mpmath():
    # each value of the new step lies within 1e-12 relative of mpmath; on
    # the ring, auto takes it where inf and one are out of range and
    # |w / (w - 2)| <= INNER_RADIUS.  (0.2, 0.1, 2, -3+i) is the point
    # where Taylor stepping was off by 1.1e-12 against its nominal 1e-13
    mp = pytest.importorskip("mpmath")
    rng = random.Random(2401)
    cases = [(0.2, 0.1, 2.0, -3 + 1j)] + list(_lopez_temme_cases(rng))
    routed = []
    with mp.workdps(30):
        for k, (al, be, mu, w) in enumerate(cases):
            got = N._eval_2f1_lopez_temme(al, be, mu, w)
            want = complex(mp.hyp2f1(*N._lie_abc(al, be, mu), w))
            assert abs(got - want) <= 1e-12 * abs(want), (al, be, mu, w)
            if k <= 40 and abs(w / (w - 2)) <= N.INNER_RADIUS \
                    < min(N._far_bounds_2f1(w)):
                assert N._eval_2F1_routed(al, be, mu, w) \
                    == (got, "lopez_temme", None)
                routed.append(w)
    assert len(routed) >= 20


def test_lopez_temme_agrees_with_taylor_stepping_on_the_ring():
    rng = random.Random(2402)
    for _ in range(40):
        al, be, mu = (complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
                      for _ in range(3))
        w = _ring_point(rng)
        got = N._eval_2f1_lopez_temme(al, be, mu, w)
        want = N._eval_2f1_taylor_fallback(al, be, mu, w)
        assert abs(got - want) <= 1e-11 * abs(want), (al, be, mu, w)


def test_lopez_temme_jet_against_mpmath():
    # each coefficient of an order-3 Jet on the ring, from the root shifts
    # through the López-Temme step, lies within 1e-11 relative of
    # mpmath's derivative; it is eval_2F1's Jet where auto takes the step
    mp = pytest.importorskip("mpmath")
    rng = random.Random(2403)
    taken = 0
    with mp.workdps(30):
        for _ in range(8):
            al, be, mu = (complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
                          for _ in range(3))
            w = _ring_point(rng)
            got, route, _ = N._eval_2F1_routed(al, be, mu, Jet.variable(w, 3),
                                               "lopez_temme")
            assert route == "lopez_temme"
            auto = N._eval_2F1_routed(al, be, mu, Jet.variable(w, 3))
            if auto[1] == "lopez_temme":
                assert N.eval_2F1(al, be, mu, Jet.variable(w, 3)).coeffs \
                    == got.coeffs
                taken += 1
            a, b, c = N._lie_abc(al, be, mu)
            want = [d / mp.factorial(k) for k, d in enumerate(
                mp.diffs(lambda x: mp.hyp2f1(a, b, c, x), mp.mpc(w), 3))]
            for k, (g, x) in enumerate(zip(got.coeffs, want)):
                assert abs(g - complex(x)) <= 1e-11 * abs(x), (al, be, mu,
                                                               w, k)
    assert taken >= 5


@pytest.mark.parametrize("steps, root, params", [
    (N._TRICOMI_STEPS, N._TRICOMI_ROOT, (0.3, 0.2)),
    (N._HERMITE_STEPS, N._HERMITE_ROOT, (0.3,)),
    (N._0F1_TILDE_STEPS, N._0F1_TILDE_ROOT, (0.3,)),
    (N._2F1_STEPS, N._2F1_ROOT, (0.2, 0.1, 0.3))])
def test_ladder_runs_every_step_at_the_value_of_a_jet(steps, root, params):
    # every step fails here, so each one auto tries runs, and the last
    # step's exception propagates; with its root, the ladder runs a Jet's
    # steps at the Jet's value, so no step sees a Jet
    ran = []

    def failing(route):
        def fn(*args):
            ran.append((route, type(args[-2])))
            raise N.ConvergenceError(route)
        return fn

    spied = [s._replace(fn=failing(s.route), guard=None) for s in steps]
    for w in (1.5 + 0.5j, Jet.variable(1.5 + 0.5j, 2)):
        del ran[:]
        with pytest.raises(N.ConvergenceError, match=steps[-1].route):
            N._ladder(spied, (*params, w), 1e-11, root=root)
        assert ran == [(route, complex) for route in _routes(steps)]


def _jet_reference(mp, name, params, w, order):
    """The Taylor coefficients of `eval_<name>` at w from mpmath's
    derivatives of the references of `_solution_reference` and
    `_hermite_reference`, at 30 digits."""
    with mp.workdps(30):
        ps = [mp.mpf(p) for p in params]
        if name == "tricomi":
            a, b = (1 + ps[1] + ps[0]) / 2, 1 + ps[1]

            def f(x):
                return mp.hyperu(a, b, x)
        elif name == "conf_minus_inf":
            a, b = (1 + ps[1] - ps[0]) / 2, 1 + ps[1]

            def f(x):
                return mp.exp(x) * mp.hyperu(a, b, -x)
        elif name == "hermite_S":
            def f(x):
                return mp.power(2, ps[0] + 0.5) * mp.hermite(-ps[0] - 0.5, x)
        else:
            def f(x):
                return 2 / mp.sqrt(mp.pi) * mp.power(x, -ps[0] / 2) \
                    * mp.besselk(ps[0], 2 * mp.sqrt(x))
        return [complex(d / mp.factorial(k))
                for k, d in enumerate(mp.diffs(f, mp.mpc(w), order))]


@pytest.mark.parametrize("name", ["tricomi", "conf_minus_inf", "hermite_S",
                                  "0f1_tilde"])
def test_order_3_jets_against_mpmath(name):
    # each coefficient of a Jet of a solution at infinity, composed from
    # its root shifts, lies within 1e-11 relative of mpmath's derivative.
    # Hermite at |w| >= 4 is drawn at Re w > 0: in the Stokes band its 2F0
    # sum misses the e^{w^2} term at the scalar value too (the strict xfail
    # test_hermite_asymptotic_sum_in_the_stokes_band)
    mp = pytest.importorskip("mpmath")
    rng = random.Random(2301)
    for _ in range(8):
        params = (rng.uniform(-0.9, 0.9),)
        if name in ("tricomi", "conf_minus_inf"):
            params += (rng.uniform(-0.45, 0.45),)
        r = rng.uniform(0.5, 8.0)
        if name == "hermite_S" and r >= N.ASYMPTOTIC_CROSSOVER:
            w = cmath.rect(r, rng.uniform(-0.45, 0.45) * math.pi)
        else:
            w = cmath.rect(r, rng.uniform(-2.8, 2.8))
        if name == "conf_minus_inf":
            w = -w
        got = getattr(N, "eval_" + name)(*params, Jet.variable(w, 3))
        want = _jet_reference(mp, name, params, w, 3)
        for k, (g, x) in enumerate(zip(got.coeffs, want)):
            assert abs(g - x) <= 1e-11 * abs(x), (params, w, k)


def _jet_2f1_reference(mp, abc, z0, dz, order):
    """The Taylor coefficients of x -> 2F1(a, b; c; z0 + dz (x - x0)) at
    x0 from mpmath at 30 digits: dz^k (a)_k (b)_k / ((c)_k k!) 2F1(a+k,
    b+k; c+k; z0) (DLMF 15.5.2), so that the degenerate parameters of the
    taylor route cost four sums, not a numerical differentiation."""
    a, b, c = (mp.mpc(p) for p in abc)
    with mp.workdps(30):
        return [complex(mp.mpc(dz) ** k * mp.rf(a, k) * mp.rf(b, k)
                        / (mp.rf(c, k) * mp.factorial(k))
                        * mp.hyp2f1(a + k, b + k, c + k, z0))
                for k in range(order + 1)]


# one argument of 2F1 per route; taylor at an integer beta, where the
# route at 1 degenerates and no other route applies
_2F1_ROUTE_POINTS = (("series", 0.3 + 0.1j), ("pfaff", -0.8 + 0.3j),
                     ("one", 0.8 - 0.3j), ("inf", 2 + 1j),
                     ("lopez_temme", 0.5 + 0.85j), ("taylor", 0.9 + 0.4j))


@pytest.mark.parametrize("route, z", _2F1_ROUTE_POINTS)
def test_order_3_jets_of_2f1_and_gegenbauer_against_mpmath(route, z):
    # each coefficient of a Jet of eval_2F1 and eval_geg_S, composed from
    # the root shifts (a, b, c) -> (a+1, b+1, c+1), lies within 1e-11
    # relative of mpmath's; S_{al,la}(w) = F_{al,al,2la}(z) at w = 1 - 2z
    # takes the route of z
    mp = pytest.importorskip("mpmath")
    be = 1.0 if route == "taylor" else 0.13
    al = 1.0 if route == "taylor" else 0.2
    for family, params, x0, dz, fn in (
            ("2f1", (0.2, be, 0.31), z, 1, N.eval_2F1),
            ("gegenbauer", (al, 0.155), 1 - 2 * z, -0.5, N.eval_geg_S)):
        jet = Jet.variable(x0, 3)
        got = fn(*params, jet)
        value, *rest = N.evaluate(family, params, jet)
        assert (value.coeffs, rest) == (got.coeffs, [route, None])
        lie = N._geg_2f1_args(*params, x0)[:3] \
            if family == "gegenbauer" else params
        want = _jet_2f1_reference(mp, N._lie_abc(*lie), z, dz, 3)
        for k, (g, x) in enumerate(zip(got.coeffs, want)):
            assert abs(g - x) <= 1e-11 * abs(x), (family, k)


def test_root_jet_over_steps_without_estimates_reports_none():
    # d/dw e^{pw} = p e^{pw}: the root shifts nothing and multiplies by p
    steps = (N._Step("exp", lambda p, w, tol: (cmath.exp(p * w), None)),)
    root = N._Root(lambda p: (p,), lambda p: p)
    p, w = 0.5 + 0.25j, 0.3 - 0.2j
    value, route, est = N._ladder(steps, (p, Jet.variable(w, 3)), 1e-11,
                                  root=root)
    assert (route, est) == ("exp", None)
    want = (cmath.exp(p * w), p * cmath.exp(p * w),
            p * p / 2 * cmath.exp(p * w), p ** 3 / 6 * cmath.exp(p * w))
    for g, x in zip(value.coeffs, want):
        assert abs(g - x) <= 1e-15 * abs(x)


# every ladder of the library, each run with a root: the six evaluators'
# and the bare 1F1 series of the standard solutions at 0
_LADDERS = ("_2F1_STEPS", "_TRICOMI_STEPS", "_HERMITE_STEPS",
            "_0F1_TILDE_STEPS", "_1F1_STEPS", "_0F1_STEPS",
            "_1F1_SERIES_STEPS")


def test_the_suites_hand_no_jet_to_a_routed_step(monkeypatch):
    # a round of every suite and family, in which residuals,
    # transmutations and recurrences evaluate every family on Jets.  No
    # step or guard of any ladder sees one, and no series: a Jet takes its
    # coefficients from root shifts (`_root_jet`)
    from hyperclass import verify
    seen = {name: set() for name in _LADDERS}
    series = set()
    pfq_series = N.pfq_series

    def spied_series(num, den, z):
        series.add(type(z))
        return pfq_series(num, den, z)

    def spied(name, step):
        def fn(*args):
            seen[name].add(type(args[-2]))
            return step.fn(*args)

        def guard(*args):
            seen[name].add(type(args[-2]))
            return step.guard(*args)
        return step._replace(fn=fn, guard=step.guard and guard)

    for name in _LADDERS:
        monkeypatch.setattr(N, name, tuple(
            spied(name, s) for s in getattr(N, name)))
    monkeypatch.setattr(N, "pfq_series", spied_series)
    for family in verify.ALL_FAMILIES:
        for suite in verify.SUITES:
            assert verify.run_suite(suite, family, seed=1).ok, (family, suite)
    # the spies are in place: every ladder and the series ran
    assert all(seen.values()) and series
    assert [name for name in _LADDERS if Jet in seen[name]] == []
    assert Jet not in series
    # and the quadrature layer has no Jet code to run
    import ast
    import inspect
    tree = ast.parse(inspect.getsource(Q))
    imported = {n.module for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom)}
    imported |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                 for a in n.names}
    assert not any(m and m.rsplit(".", 1)[-1] == "jet" for m in imported)


def test_ladder_gates_and_forces():
    steps = (N._Step("a", lambda w, tol: (1.0, 2 * tol)),
             N._Step("b", lambda w, tol: (2.0, None), lambda w, tol: False),
             N._Step("c", lambda w, tol: (3.0, tol)))
    # a misses tol and b's guard is false
    assert N._ladder(steps, (0.5,), 1e-11) == (3.0, "c", 1e-11)
    # a forced step runs without its guard and the estimate gate
    assert N._ladder(steps, (0.5,), 1e-11, "a") == (1.0, "a", 2e-11)
    assert N._ladder(steps, (0.5,), 1e-11, "b") == (2.0, "b", None)
    for bad in (math.nan, complex(0.5, math.inf)):
        with pytest.raises(N.DomainError, match="non-finite"):
            N._ladder(steps, (bad,), 1e-11, "b")
    # the 2F0 sum refuses its own result where it misses tol relative to
    # the sum: auto goes on (to the continued fraction at Re w >= 2), a
    # forced method reports it with its estimate
    value, route, est = N._hermite_S(0.3, 4.5, 1e-11, "asymptotic")
    assert route == "asymptotic" and est > 1e-11
    assert N._hermite_S(0.3, 4.5, 1e-11)[1] == "cf"


def test_a_forced_method_runs_the_first_step_of_its_name():
    steps = (N._Step("a", lambda w, tol: (1.0, None)),
             N._Step("b", lambda w, tol: (2.0, None)),
             N._Step("a", lambda w, tol: (3.0, None)))
    assert N._ladder(steps, (0.5,), 1e-11, "a") == (1.0, "a", None)
    # the 2F1 route at 1 is listed before and after inf
    assert _routes(N._2F1_STEPS).count("one") == 2
    args = (0.2, 0.1, 0.3, 0.7)
    assert N._ladder(N._2F1_STEPS, args, None, "one", N._2f1_check) \
        == (N._eval_2f1_one_route(*args), "one", None)
    # a name that no step has is a ValueError that names it
    with pytest.raises(ValueError, match="'nowhere'"):
        N._ladder(N._2F1_STEPS, args, None, "nowhere", N._2f1_check)


# ---------------------------------------------------------------------------
# The solution at -infinity as the image of the Tricomi solution
# ---------------------------------------------------------------------------

def test_minus_inf_sign_map_is_the_catalog_row_1f1_sym_03():
    # substitute(F_{th,al}, w = -v) = -e^-v o F_{-th,al} o e^v: a solution
    # U of F_{-th,al} in v gives the solution e^-v U(v) at w = -v
    from fractions import Fraction
    from hyperclass.exactalg import GaussRational, MultiPoly
    from hyperclass.families import catalog
    (row,) = [r for r in catalog("1f1").symmetries if r.id == "1f1:sym:03"]
    p, q, r, s = row.sub.data
    for v in (Fraction(2, 7), Fraction(-5, 3), Fraction(9, 4)):
        assert (p * v + q) / (r * v + s) == GaussRational.of(-v)
    assert row.target == (-MultiPoly.var("theta"), MultiPoly.var("alpha"))
    assert row.mult.factors == ()
    assert row.mult.exp_part == tuple(map(GaussRational.of, (0, -1, 0)))
    assert row.sign == -1
    # _conf_minus_inf applies that map to _tricomi, on every route
    for th, al, w, route in ((0.3, 0.2, -1.2 - 0.7j, "series"),
                             (-0.4, 0.7, -50 + 20j, "asymptotic"),
                             (0.3, 0.0, -1.2 - 0.7j, "quadrature")):
        assign = {"theta": th, "alpha": al}
        target = [c.eval_numeric(assign) for c in row.target]
        v = -w
        u, u_route, u_est = N._tricomi(*target, v, 1e-11)
        value, got_route, est = N._conf_minus_inf(th, al, w, 1e-11)
        assert (got_route, est) == (u_route, u_est) and got_route == route
        assert value == row.mult.eval_numeric(v, assign) * u


@pytest.mark.parametrize("params, w, route", [
    ((0.3, 0.2), -50 + 20j, "asymptotic"),
    ((-0.4, 0.7), -30 - 60j, "asymptotic"),
    ((0.6, -0.35), -75 + 5j, "asymptotic"),
    ((0.3, 0.0), -1.2 - 0.7j, "quadrature"),
    ((-0.2, 0.0), -0.4 + 2.1j, "quadrature"),
])
def test_minus_inf_routes_against_mpmath(params, w, route):
    mp = pytest.importorskip("mpmath")
    value, got, est = N._conf_minus_inf(*params, w, 1e-11)
    assert got == route
    ref = _solution_reference(mp, "conf_minus_inf", params, w)
    assert abs(value - ref) <= 1e-11 * abs(ref), (params, w, est)


def test_minus_inf_quadrature_on_a_jet_against_mpmath():
    # d/dw e^w U(a, b, -w) = e^w (U(a, b, -w) + a U(a+1, b+1, -w))
    mp = pytest.importorskip("mpmath")
    th, al, w = 0.3, 0.2, -1.2 - 0.7j
    value, route, _ = N._conf_minus_inf(th, al, Jet.variable(w, 1), 1e-12)
    assert route == "series"
    with mp.workdps(30):
        a, b = (1 + al - th) / 2, 1 + al
        e = mp.exp(w)
        want = (complex(e * mp.hyperu(a, b, -w)),
                complex(e * (mp.hyperu(a, b, -w)
                             + a * mp.hyperu(a + 1, b + 1, -w))))
    for k, (g, r) in enumerate(zip(value.coeffs, want)):
        assert abs(g - r) <= 1e-11 * abs(r), k


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


def _matrix_2f1_written_out(al, be, mu):
    """connection_matrix_2f1 with each entry written out."""
    al, be, mu = complex(al), complex(be), complex(mu)
    f = math.pi / N.sinpi(mu)
    g = N.rgamma
    return [
        [-f * g((1 + al + be - mu) / 2) * g((1 + al - be - mu) / 2),
         f * g((1 + al + be + mu) / 2) * g((1 + al - be + mu) / 2)],
        [-f * g((1 - al - be - mu) / 2) * g((1 - al + be - mu) / 2),
         f * g((1 - al - be + mu) / 2) * g((1 - al + be + mu) / 2)],
    ]


def test_2f1_inf_route_reads_row_0_of_the_matrix_bitwise():
    # the route builds only row 0 of connection_matrix_2f1, and the matrix
    # is built from that row: over the perfbench 2f1_inf box (1.8 < |w| <
    # 6 off the positive axis, parameters 0.1 to 0.45 in modulus) both are
    # bitwise the written-out matrix and the route's full-matrix form
    rng = random.Random(701)
    for _ in range(240):
        al, be, mu = (rng.choice((-1, 1)) * rng.uniform(0.1, 0.45)
                      for _ in range(3))
        w = cmath.rect(rng.uniform(1.8, 6.0),
                       rng.uniform(0.45, 2 * math.pi - 0.45))
        A = _matrix_2f1_written_out(al, be, mu)
        assert N.connection_matrix_2f1(al, be, mu) == A
        inner = N._series_or_pfaff
        f1 = N._kummer_term("atinf_1", 0, al, be, mu, w, inner) \
            * N.rgamma(1 + mu)
        f2 = N._kummer_term("atinf_2", 0, al, be, mu, w, inner) \
            * N.rgamma(1 - mu)
        full = (A[0][0] * f1 + A[0][1] * f2) * N.gamma(1 + al)
        assert N._eval_2f1_inf_route(al, be, mu, w) == full


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


@pytest.mark.parametrize("family", sorted(SOLUTION_COUNTS))
def test_solution_expressions_agree_at_the_residual_points(family):
    """Every two expressions of a standard solution agree at the residual
    suite's sample points, or one of them raises a typed error."""
    from hyperclass.verify import _residual_point_sampler
    for d in N.standard_solutions(family, SOLUTION_PARAMS[family]):
        for seed in (0, 1, 3):
            sampler = _residual_point_sampler(
                family, d.key, random.Random((seed, family, d.key).__repr__()))
            for _ in range(20):
                w = sampler()
                vals = []
                for expr in range(len(d.expressions)):
                    try:
                        vals.append(N.eval_solution(d, w, expr))
                    except N.NumericsError:
                        pass
                for v in vals[1:]:
                    assert abs(v - vals[0]) <= 1e-9 * abs(vals[0]), \
                        (d.key, w, v, vals[0])
