"""Contour quadrature engine and the integral-representation rows."""

import cmath
import math
import struct

import pytest

from hyperclass import numerics as N
from hyperclass import quadrature as Q
from hyperclass.jet import Jet

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


# ---------------------------------------------------------------------------
# Power integrands on rays and the segment/ray dispatcher
# ---------------------------------------------------------------------------

def test_ray_power_integrand_exact_start_offset():
    # far from 0, so that t - z0 rounds away from the offset s
    z0, p = 1000.1 + 0.3j, 999.6 - 0.2j
    g = Q.ray_power_integrand(z0, 1.0, ((1, z0, -0.45), (1, p, 0.3)),
                              extra=lambda t: cmath.exp(z0 - t))

    def by_hand(s):
        t = z0 + s
        return s ** -0.45 * (t - p) ** 0.3 * cmath.exp(z0 - t)

    def naive(s):
        t = z0 + s
        return (t - z0) ** -0.45 * (t - p) ** 0.3 * cmath.exp(z0 - t)

    nodes = (1e-12, 3.7e-9, 1e-6, 0.3, 2.0, 7.5)
    assert [_bits(g(s)) for s in nodes] == [_bits(by_hand(s)) for s in nodes]
    assert any(_bits(g(s)) != _bits(naive(s)) for s in nodes)
    got, want = Q.exp_sinh(g), Q.exp_sinh(by_hand)
    assert [_bits(x) for x in got] == [_bits(x) for x in want]


def test_ray_power_integrand_jet_factor():
    # d/dw of int_0^inf s^{-0.3} (s+w)^{-0.4} e^{-s} ds under the integral
    w0, h = 0.8 + 0.5j, 1e-5

    def integral(w):
        g = Q.ray_power_integrand(0.0, 1.0, ((1, 0.0, -0.3), (1, -w, -0.4)),
                                  extra=lambda t: cmath.exp(-t))
        return Q.exp_sinh(g, 1e-13)[0]

    j = integral(Jet.variable(w0, 1))
    assert isinstance(j, Jet)
    assert abs(j.value() - integral(w0)) < 1e-14 * abs(j.value())
    num = (integral(w0 + h) - integral(w0 - h)) / (2 * h)
    assert abs(j.derivative_value(1) - num) < 1e-7 * abs(num)


def test_ray_power_integrand_imaginary_direction():
    # t = z0 + i s: (-i(t-z0))^{a-1} (-i(t-z0+i))^b e^{i(t-z0)}
    # = s^{a-1} (1+s)^b e^{-s}, and with b = 0 the integral is Gamma(a)
    z0, a, b = -0.4 + 2.0j, 0.35, -0.6
    g = Q.ray_power_integrand(
        z0, 1j, ((-1j, z0, a - 1), (-1j, z0 - 1j, b)),
        extra=lambda t: cmath.exp(1j * (t - z0)))
    val, _ = Q.exp_sinh(g)
    ref, _ = Q.exp_sinh(lambda s: s ** (a - 1) * (1 + s) ** b * math.exp(-s))
    assert abs(val - ref) < 1e-13 * abs(ref)
    gam = Q.ray_power_integrand(z0, 1j, ((-1j, z0, a - 1),),
                                extra=lambda t: cmath.exp(1j * (t - z0)))
    assert abs(Q.exp_sinh(gam)[0] - N.gamma(a)) < 1e-12 * abs(N.gamma(a))


def test_power_integrands_return_a_guard_zero():
    # an underflow guard's zero is the node's value, although s^-1.5 would
    # overflow there: the node counts as a zero instead of being skipped
    def extra(t):
        return 0.0j if t.real < 1e-3 else cmath.exp(-1 / t)

    factors = ((1, 0.0, -1.5),)
    g = Q.ray_power_integrand(0.0, 1.0, factors, extra)
    f = Q.segment_power_integrand(0.0, 1.0, factors, extra)
    with pytest.raises(OverflowError):
        complex(1e-300) ** -1.5
    assert g(1e-300) == 0 and f(1e-300 + 0j, 0, 1e-300 + 0j) == 0
    assert abs(g(0.5) - 0.5 ** -1.5 * math.exp(-2)) < 1e-15


def test_power_integral_dispatch(monkeypatch):
    calls = []

    def counted(name):
        rule = getattr(Q, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return rule(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Q, "tanh_sinh", counted("tanh_sinh"))
    monkeypatch.setattr(Q, "exp_sinh", counted("exp_sinh"))
    factors = ((1, 0.0, -0.5),)
    seg, _ = Q.power_integral(("seg", 0.0, 1.0), factors, 1e-12)
    assert calls == ["tanh_sinh"] and abs(seg - 2) < 1e-12
    calls.clear()
    ray, _ = Q.power_integral(("ray", 0.0, 1.0), factors, 1e-12,
                              extra=lambda t: cmath.exp(-t))
    assert calls == ["exp_sinh"] and abs(ray - SQRT_PI) < 1e-12
    with pytest.raises(ValueError):
        Q.power_integral(("arc", 0.0, 1.0), factors, 1e-12)


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


def _loop_around_0_and_w(w):
    # the rectangle of 1f1:int:01: t^-0.6 e^t (t-w)^-0.3 encircling 0 and w
    R = 40.0 + abs(w)
    pieces = (("seg", complex(-R, -1.0), complex(1.5, -1.0)),
              ("seg", complex(1.5, -1.0), complex(1.5, 1.5)),
              ("seg", complex(1.5, 1.5), complex(-R, 1.5)))
    return pieces, ((1.0, 0.0, -0.6), (1.0, w, -0.3))


def test_path_integral_honours_tol():
    w = 0.5 + 0.5j
    pieces, factors = _loop_around_0_and_w(w)
    expected = 2j * math.pi * N.bold_F_1f1(-0.3, -0.1, w)
    # met by the first comparison of the 1x and 2x panel rules: the value
    # returned before the tolerance was read, to within an ulp
    val, err = Q.path_integral(pieces, factors, lambda t: t, 1e-10)
    assert abs(val - (-1.358549740328545 + 6.805114664826j)) \
        <= 4e-16 * abs(val)
    assert err <= 1e-10 * max(abs(val), 1.0)
    assert abs(val - expected) < 1e-12 * abs(expected)
    # out of reach of double precision: the panels double up to the cap
    with pytest.raises(Q.QuadratureError) as exc:
        Q.path_integral(pieces, factors, lambda t: t, 1e-30)
    assert exc.value.estimate > 1e-30 * abs(exc.value.value)
    assert abs(exc.value.value - expected) < 1e-12 * abs(expected)
    assert isinstance(exc.value, N.NumericsError)


def test_integrate_contour_wrapper():
    f = Q.segment_power_integrand(0.0, 1.0, ((1, 0.0, -0.5), (-1, 1.0, -0.5)))
    val, est = Q.tanh_sinh(f, 0.0, 1.0, tol=1e-10)
    assert abs(val - math.pi) < 1e-12
    assert est < 1e-10


# ---------------------------------------------------------------------------
# Double-exponential node tables
# ---------------------------------------------------------------------------

NODE_MAPS = (Q._ts_node, Q._es_node)


def _node_bits(node):
    return None if node is None else struct.pack("<dd", *node)


def test_node_tables_match_fresh_computation():
    # every u the doubling trapezoid visits: u = k h, |u| <= 6.5, each
    # level holding the k not visited before (all k at level 0, odd above)
    for level in range(10):
        h = 0.5 / 2 ** level
        step = 1 if level == 0 else 2
        for node in NODE_MAPS:
            plus, minus = Q._de_level(node, level)
            for side, sign, k0 in ((plus, 1.0, 0 if level == 0 else 1),
                                   (minus, -1.0, 1)):
                triples = list(Q._triples(side))
                assert len(side) == 3 * len(triples)
                for i, (u, a, b) in enumerate(triples):
                    assert u == sign * (k0 + i * step) * h
                    assert _node_bits((a, b)) == _node_bits(node(u))
                # the side ends where |u| passes 6.5 or the map is cut
                u = sign * (k0 + len(triples) * step) * h
                assert abs(u) > Q._U_MAX + 1e-9 or node(u) is None


def test_node_tables_do_not_grow_with_calls():
    Q._de_level.cache_clear()

    def integrate(i):
        za = complex(0.1 * i, -0.05 * i)
        zb = za + (1 + 0.3j) * (1 + 0.1 * i)
        Q.tanh_sinh(lambda t: 1.0, za, zb)
        scale = 0.5 + 0.1 * i
        Q.exp_sinh(lambda s: math.exp(-s / scale) / scale, scale=scale)

    integrate(0)
    size = Q._de_level.cache_info().currsize
    assert size
    for i in range(1, 50):
        integrate(i)
    assert Q._de_level.cache_info().currsize == size


# The rules visited every node through a node_fn(u) closure before the
# per-level tables.  That path is kept here as the reference: tanh_sinh and
# exp_sinh must agree with it bit for bit, value and error estimate.

def _ref_level_sum(node_fn, f, h, only_odd):
    total = 0.0j
    scale = 0.0
    for sign in (1.0, -1.0):
        k = 1 if only_odd else (0 if sign > 0 else 1)
        step = 2 if only_odd else 1
        misses = 0
        while True:
            u = sign * k * h
            if abs(u) > 6.5 + 1e-9:
                break
            got = node_fn(u)
            if got is None:
                break
            args, wgt = got
            try:
                val = f(*args)
            except (OverflowError, ZeroDivisionError, ValueError):
                val = None
            if val is None:
                size = math.nan
            elif isinstance(val, Jet):
                size = abs(val.value())
            else:
                size = abs(complex(val))
            if math.isfinite(size):
                contrib = wgt * val
                total = contrib + total
                mag = abs(wgt) * size
                scale = max(scale, mag)
                if scale > 0 and mag < 1e-18 * scale:
                    misses += 1
                    if misses >= 4:
                        break
                else:
                    misses = 0
            k += step
    return total


def _ref_de_integrate(node_fn, f, tol, max_level=9):
    h = 0.5
    total = _ref_level_sum(node_fn, f, h, only_odd=False)
    value = total * h
    prev = None
    err = float("inf")
    for _level in range(1, max_level + 1):
        h *= 0.5
        total = total + _ref_level_sum(node_fn, f, h, only_odd=True)
        new_value = total * h
        err = N.jabs(new_value - value)
        value = new_value
        scale = max(N.jabs(value), 1e-300)
        if err <= tol * scale and prev is not None:
            return value, err
        prev = err
    return value, err


def _ref_tanh_sinh(f, za, zb, tol=1e-11, max_level=9):
    za = complex(za)
    zb = complex(zb)
    d = zb - za
    aware = getattr(f, "endpoint_aware", False)

    def node_fn(u):
        got = Q._ts_node(u)
        if got is None:
            return None
        near, wgt = got
        off = d * near
        side = 1 if u > 0 else 0
        t = (zb - off) if side else (za + off)
        if aware:
            return (t, side, off), wgt * d
        return (t,), wgt * d

    return _ref_de_integrate(node_fn, f, tol, max_level)


def _ref_exp_sinh(g, tol=1e-11, max_level=9, scale=1.0):
    def node_fn(u):
        got = Q._es_node(u)
        if got is None:
            return None
        ev, ch = got
        s = scale * ev
        return (s,), s * 0.5 * math.pi * ch

    return _ref_de_integrate(node_fn, g, tol, max_level)


def _value_bits(v):
    if isinstance(v, Jet):
        return ("jet", _bits(v.center), tuple(_bits(c) for c in v.coeffs))
    return _bits(complex(v))


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


def _rule_outcome(rule, *args, **kwargs):
    value, err = rule(*args, **kwargs)
    return _value_bits(value), struct.pack("<d", err)


def _faulty(f):
    """f, except that at some nodes it raises an arithmetic error or
    returns None, inf or NaN."""
    def g(t, *rest):
        key = int(abs(t) * 1e7) % 11
        if key == 0:
            raise ZeroDivisionError
        if key == 1:
            raise ValueError
        if key == 2:
            raise OverflowError
        if key == 3:
            return None
        if key == 4:
            return complex(math.inf, 0.0)
        if key == 5:
            return complex(math.nan, 1.0)
        return f(t, *rest)
    return g


def _ts_cases():
    wj = Jet.variable(0.3 + 0.2j, 3)
    beta = Q.segment_power_integrand(0.0, 1.0,
                                     ((1, 0.0, -0.7), (-1, 1.0, -0.4)))
    jet_beta = Q.segment_power_integrand(
        0.2 - 0.1j, 1.5 + 0.4j, ((1, 0.2 - 0.1j, -0.3), (-1, 1.5 + 0.4j, 0.6),
                                 (1, 2.0, 0.25)),
        extra=lambda t: N.jexp(wj * t))
    aware_faulty = Q.EndpointAware(_faulty(
        lambda t, side, off: beta.fn(t, side, off)))
    # far from 0, so that t - za and zb - t round differently from the
    # offsets that the endpoint-aware integrand receives
    za, zb = 1000.1 + 0.3j, 1000.7 - 0.2j
    skew = Q.segment_power_integrand(za, zb, ((1, za, -0.45), (-1, zb, 0.3)),
                                     extra=lambda t: cmath.exp(3 * (t - za)))
    return [
        # sums that cancel to ~0, so every tail node's bits count
        (lambda t: t * cmath.exp(-t * t), -1.0, 1.0, {}),
        (lambda t: cmath.sin(7 * t), -1.3, 1.3, {"tol": 1e-13}),
        (skew, za, zb, {}),
        (lambda t: cmath.log(t), za, zb, {}),
        (lambda t: cmath.exp(t), 0.0, 1.0, {}),
        (lambda t: t ** -0.5, 0.0, 1.0, {}),
        (lambda t: t * t, 0.5j, 1 + 0.2j, {"tol": 1e-14}),
        (lambda t: cmath.exp(1j / (t + 1e-30)) / (t + 1e-30), 0.0, 1.0,
         {"tol": 1e-14}),
        (lambda t: 1.0, 2.0, -1 + 3j, {"max_level": 4}),
        (beta, 0.0, 1.0, {}),
        (jet_beta, 0.2 - 0.1j, 1.5 + 0.4j, {}),
        (lambda t: N.jpow(wj - t, -0.3) if t.real > 0.5 else 0.0j,
         0.0, 2.0, {}),
        (_faulty(lambda t: cmath.exp(-t) * t ** -0.3), 0.0, 2 + 1j, {}),
        (aware_faulty, 0.0, 1.0, {"tol": 1e-13}),
        (_faulty(lambda t: N.jexp(wj * t)), -1.0, 1.0, {}),
    ]


def _es_cases():
    wj = Jet.variable(2.0 + 1.0j, 2)
    return [
        (lambda s: math.exp(-s) - 2 * math.exp(-2 * s), {}),
        (lambda s: math.exp(-s) * math.sin(3 * s), {"scale": 0.6}),
        (lambda s: math.exp(-s) * s ** -0.7, {}),
        (lambda s: math.exp(-s / 100), {"scale": 100.0}),
        (lambda s: math.exp(-s * s) * s ** 0.3, {"scale": 0.3, "tol": 1e-14}),
        (lambda s: s ** -0.2 * math.exp(-s) * N.jpow(wj + s, -0.4), {}),
        (lambda s: 0.0j if s > 30.0 else math.exp(-s) * N.jexp(-wj / s),
         {"scale": 2.5}),
        (_faulty(lambda s: cmath.exp(-s) * s ** (-0.5 + 0.2j)), {}),
        (_faulty(lambda s: N.jpow(s + wj, -2.5)), {"scale": 1.7}),
        (lambda s: 1.0 / (1.0 + s * s), {"max_level": 9, "tol": 1e-30}),
    ]


def test_tanh_sinh_matches_per_node_reference_bitwise():
    for f, za, zb, kw in _ts_cases():
        assert _rule_outcome(Q.tanh_sinh, f, za, zb, **kw) \
            == _rule_outcome(_ref_tanh_sinh, f, za, zb, **kw), (za, zb, kw)


def test_exp_sinh_matches_per_node_reference_bitwise():
    for g, kw in _es_cases():
        assert _rule_outcome(Q.exp_sinh, g, **kw) \
            == _rule_outcome(_ref_exp_sinh, g, **kw), kw


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
    j = Q.tricomi_solution(th, al, Jet.variable(w, 1), 1e-12)
    h = 1e-5
    num = (Q.tricomi_solution(th, al, w + h, 1e-13)
           - Q.tricomi_solution(th, al, w - h, 1e-13)) / (2 * h)
    assert abs(j.derivative_value(1) - num) < 1e-6 * abs(num)


_NON_FINITE = [complex(math.nan, 0.0), complex(1.0, math.nan),
               complex(math.inf, 1.0), complex(-math.inf, 1.0),
               complex(1.0, math.inf), complex(1.0, -math.inf)]

# (evaluator, parameters); each also reached through the numerics front end
_SOLUTIONS = [
    (Q.tricomi_solution, N.eval_tricomi, (0.3, 0.2)),
    (Q.conf_minus_inf_solution, N.eval_conf_minus_inf, (0.3, 0.2)),
    (Q.hermite_S_solution, N.eval_hermite_S, (0.3,)),
    (Q.hermite_S_solution, N.eval_hermite_S, (-0.8,)),
    (Q.bessel_tilde_solution, N.eval_0f1_tilde, (0.3,)),
]


@pytest.mark.parametrize("quad, front, params", _SOLUTIONS)
def test_solutions_refuse_non_finite_input(quad, front, params):
    # a NaN node is dropped as a failed one, so the quadrature would
    # return 0 or NaN without an error
    w = 1.5 - 0.5j
    for fn in (quad, front):
        for bad in _NON_FINITE:
            with pytest.raises(N.DomainError):
                fn(*params, bad)
            with pytest.raises(N.DomainError):
                fn(*params, Jet(w, [w, 1.0, bad]))
            with pytest.raises(N.DomainError):
                fn(bad, *params[1:], w)
        assert cmath.isfinite(fn(*params, w))


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
