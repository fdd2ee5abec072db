"""Contour quadrature engine and the integral-representation rows."""

import cmath
import math
import struct

import pytest

from hyperclass import numerics as N
from hyperclass import quadrature as Q
from hyperclass import rep_rows
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
    # B(p+1, q+1) with singular endpoints on both sides, at complex
    # exponents down to -0.95 too
    for p, q in ((-0.7, -0.4), (-0.95 + 0.3j, -0.6 - 0.4j),
                 (-0.3 - 0.7j, -0.95 + 0.1j), (0.4 + 0.2j, -0.95)):
        f = Q.segment_power_integrand(0.0, 1.0, ((1, 0.0, p), (-1, 1.0, q)))
        val, _ = Q.tanh_sinh(f, 0.0, 1.0)
        expected = N.gamma(p + 1) * N.gamma(q + 1) / N.gamma(p + q + 2)
        assert abs(val - expected) < 1e-12 * abs(expected), (p, q)


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
                              extra=lambda t: z0 - t)

    def by_hand(s):
        t = z0 + s
        return cmath.exp(z0 - t + -0.45 * cmath.log(s)
                         + 0.3 * cmath.log(t - p))

    def naive(s):
        t = z0 + s
        return cmath.exp(z0 - t + -0.45 * cmath.log(t - z0)
                         + 0.3 * cmath.log(t - p))

    nodes = (1e-12, 3.7e-9, 1e-6, 0.3, 2.0, 7.5)
    assert [_bits(g(s)) for s in nodes] == [_bits(by_hand(s)) for s in nodes]
    assert any(_bits(g(s)) != _bits(naive(s)) for s in nodes)
    got, want = Q.exp_sinh(g), Q.exp_sinh(by_hand)
    assert [_bits(x) for x in got] == [_bits(x) for x in want]


def test_ray_power_integrand_imaginary_direction():
    # t = z0 + i s: (-i(t-z0))^{a-1} (-i(t-z0+i))^b e^{i(t-z0)}
    # = s^{a-1} (1+s)^b e^{-s}, and with b = 0 the integral is Gamma(a)
    z0, a, b = -0.4 + 2.0j, 0.35, -0.6
    g = Q.ray_power_integrand(
        z0, 1j, ((-1j, z0, a - 1), (-1j, z0 - 1j, b)),
        extra=lambda t: 1j * (t - z0))
    val, _ = Q.exp_sinh(g)
    ref, _ = Q.exp_sinh(lambda s: s ** (a - 1) * (1 + s) ** b * math.exp(-s))
    assert abs(val - ref) < 1e-13 * abs(ref)
    for a in (a, 0.7 + 0.6j, 1.8 - 0.9j):
        gam = Q.ray_power_integrand(z0, 1j, ((-1j, z0, a - 1),),
                                    extra=lambda t: 1j * (t - z0))
        assert abs(Q.exp_sinh(gam)[0] - N.gamma(a)) \
            < 1e-12 * abs(N.gamma(a)), a


def test_power_integrands_return_a_guard_zero():
    # the underflow guard on the whole exponent, -1/t - 1.5 log t, gives
    # the node's value, although s^-1.5 alone would overflow there: the
    # node counts as a zero instead of being skipped
    def extra(t):
        return -1 / t

    factors = ((1, 0.0, -1.5),)
    g = Q.ray_power_integrand(0.0, 1.0, factors, extra)
    f = Q.segment_power_integrand(0.0, 1.0, factors, extra)
    with pytest.raises(OverflowError):
        complex(1e-300) ** -1.5
    assert g(1e-300) == 0 and f(1e-300 + 0j, 0, 1e-300 + 0j) == 0
    assert abs(g(0.5) - 0.5 ** -1.5 * math.exp(-2)) < 1e-15


def test_segment_power_integrand_far_from_the_origin():
    # the skew segment: (t-za)^a (zb-t)^b over [za, zb] is
    # d^{a+b+1} B(a+1, b+1), d = zb - za, with principal powers of d
    za, zb = 1000.1 + 0.3j, 1000.7 - 0.2j
    d = zb - za
    for a, b in ((-0.45, 0.3), (-0.95 + 0.2j, -0.5 - 0.3j)):
        f = Q.segment_power_integrand(za, zb, ((1, za, a), (-1, zb, b)))
        val, _ = Q.tanh_sinh(f, za, zb)
        want = cmath.exp((a + b + 1) * cmath.log(d)) \
            * N.gamma(a + 1) * N.gamma(b + 1) / N.gamma(a + b + 2)
        assert abs(val - want) < 1e-12 * abs(want), (a, b)


def test_power_integrands_keep_a_node_whose_factor_overflows():
    # s^-1.5 s^1.2 at s = 1e-300: the first factor alone overflows a
    # double and the second underflows, but the product s^-0.3 = 1e90 is
    # a normal double, and the one exponential returns it (a power per
    # factor raised OverflowError, and the node was skipped)
    with pytest.raises(OverflowError):
        complex(1e-300) ** -1.5
    factors = ((1, 0.0, -1.5), (1, 0.0, 1.2))
    g = Q.ray_power_integrand(0.0, 1.0, factors)
    f = Q.segment_power_integrand(0.0, 1.0, factors)
    for got in (g(1e-300), f(1e-300 + 0j, 0, 1e-300 + 0j)):
        assert abs(got - 1e90) < 1e-13 * 1e90


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
                              extra=lambda t: -t)
    assert calls == ["exp_sinh"] and abs(ray - SQRT_PI) < 1e-12
    with pytest.raises(ValueError):
        Q.power_integral(("arc", 0.0, 1.0), factors, 1e-12)


def test_double_ray_hankel():
    # (1/2 pi i) oint e^t t^{-z} dt = 1/Gamma(z) on the Hankel contour
    z = 0.7 + 0.3j
    val, _ = Q.loop_0(lambda t: t, -z, 0.8, 40.0)
    got = val / (2j * math.pi)
    expected = N.rgamma(z)
    assert abs(got - expected) < 1e-12 * abs(expected)


def test_keyhole_radius_invariance():
    # the loop value is invariant under deforming the circle radius,
    # which exercises the phase bookkeeping of the lip reduction
    g = -0.4
    log_fn = lambda t: t - 0.3 * cmath.log(2 - t)
    v1, _ = Q.loop_0(log_fn, g, 0.5, 0.0)
    v2, _ = Q.loop_0(log_fn, g, 0.9, 0.0)
    assert abs(v1 - v2) < 1e-11 * max(abs(v1), 1.0)


def test_loop_estimate_carries_the_sine_factor():
    # the lips enter the loop times 2i sin(pi g), |2 sin(pi g)| ~ 111 at
    # this complex g, and so must their error estimate
    g = -0.4 + 1.5j
    log_fn = lambda t: t - 0.3 * cmath.log(2 - t)
    _, e_lips = Q.tanh_sinh(
        lambda s: cmath.exp(g * cmath.log(s) + log_fn(-s)), 0.0, 0.5)
    _, est = Q.loop_0(log_fn, g, 0.5, 0.0)
    assert est >= abs(2 * cmath.sin(math.pi * g)) * e_lips > 0


def test_power_integral_closed_loop_residue():
    # oint dt/(t - p) around a rectangle containing p = 2 pi i, as four
    # power_integral segments
    p = 0.3 + 0.2j
    corners = (-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j, -1 - 1j)
    val = sum(Q.power_integral(("seg", a, b), ((1, p, -1),), 1e-12)[0]
              for a, b in zip(corners, corners[1:]))
    assert abs(val - 2j * math.pi) < 1e-12


@pytest.mark.parametrize("ps,w", [
    ((0.3, 0.2), 0.5 - 0.8j),          # Im w < 0
    ((0.3, 0.2), 2 - 3j),
    ((-0.2, 0.4), -5 + 0.5j),          # Re w <= -5
    ((0.1, -0.3), -8 - 2j),
    ((0.3, 0.2), -10 + 0.1j),
    ((0.3, 0.2), 6 + 8j),              # |w| = 10
    ((0.3, 0.2), -6 - 8j),
    ((0.3, 0.2), 8 - 6j),
    ((-0.5, 0.48), 1 + 1j),            # p = -0.99
    ((-0.5, 0.49), -3 + 2j),           # p = -0.995
    ((0.5, 0.48), 1 - 1j),             # r = -0.99
    ((0.5, 0.49), -5 - 1j),            # r = -0.995
])
def test_hankel_loop_row_beyond_its_samples(ps, w):
    # 1f1:int:01, the loop of t^p e^t (t-w)^r / 2 pi i around 0 and w,
    # away from the row's own samples
    row = {r.id: r for r in Q.integral_rep_rows("1f1")}["1f1:int:01"]
    assert row.domain(w)
    val, est = row.evaluate(ps, w, 1e-11)
    expected = N.bold_F_1f1(ps[0], ps[1], w)
    assert abs(val - expected) <= 1e-13 * abs(expected)
    assert est <= 1e-10 * abs(val)


@pytest.mark.parametrize("w", [10j, -10j])
def test_hankel_loop_row_on_the_imaginary_axis(w):
    # at w = +-10i the series behind N.bold_F_1f1 loses about 2e-13 to
    # cancellation (ROADMAP item 1), so the loop is checked against mpmath
    mpmath = pytest.importorskip("mpmath")
    row = {r.id: r for r in Q.integral_rep_rows("1f1")}["1f1:int:01"]
    th, al = 0.3, 0.2
    val, est = row.evaluate((th, al), w, 1e-11)
    with mpmath.workdps(30):
        expected = complex(mpmath.hyp1f1((1 + al + th) / 2, 1 + al, w)
                           * mpmath.rgamma(1 + al))
    assert abs(val - expected) <= 1e-14 * abs(expected)
    assert est <= 1e-10 * abs(val)


_CONF_COMPLEX = ((0.3 + 0.4j, 0.2 - 0.5j), (-0.4 - 0.3j, -0.3 + 0.6j))
_HERM_COMPLEX = ((0.2 + 0.5j,), (-0.3 - 0.4j,))
_0F1_COMPLEX = ((0.3 + 0.5j,), (-0.4 - 0.7j,))


@pytest.mark.parametrize("row_id, ps, w", [
    # arg w -> +-pi/2 and, for 1f1:int:07, |w| -> 0.5 (the domains are
    # Re w > 0 and |w| < 0.5); a keyhole's lips near 0 oscillate like
    # e^{-i Im w / s}, so the keyholes stop at |arg w| = 1.4
    *(("1f1:int:07", ps, w) for ps in _CONF_COMPLEX
      for w in (0.49, cmath.rect(0.49, 1.4), cmath.rect(0.49, -1.4),
                cmath.rect(0.3, 1.4), cmath.rect(0.3, -1.4))),
    *(("0f1:int:01", ps, w) for ps in _0F1_COMPLEX
      for w in (cmath.rect(0.5, 1.55), cmath.rect(2, -1.55),
                cmath.rect(8, 1.5), cmath.rect(8, -1.5), 5 + 0.5j)),
    *(("0f1:int:02", ps, w) for ps in _0F1_COMPLEX
      for w in (cmath.rect(0.5, 1.4), cmath.rect(0.5, -1.4),
                cmath.rect(2, 1.4), cmath.rect(4, -1.4), 5 + 0.5j)),
    # Re w <= -5, Im w of both signs
    *(("herm:int:04", ps, w) for ps in _HERM_COMPLEX
      for w in (-5 + 0.3j, -5 - 0.3j, -5 + 1j, -5 - 1j, -9 + 0.5j,
                -9 - 0.5j, -12 + 0.2j)),
])
def test_loop_rows_beyond_their_samples(row_id, ps, w):
    # the three loop_0 rows and the Hermite bypass below 0 at complex
    # parameters, so that the exponent at 0 is complex, near the edges of
    # their domains
    row = {r.id: r for f in ("1f1", "hermite", "0f1")
           for r in Q.integral_rep_rows(f)}[row_id]
    w = complex(w)
    assert row.domain(w)
    val, est = row.evaluate(ps, w, 1e-11)
    expected = row.expected(ps, w)
    assert abs(val - expected) <= 1e-12 * abs(expected)
    assert est <= 1e-10 * abs(val)


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
        err = abs(new_value - value)
        value = new_value
        scale = max(abs(value), 1e-300)
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
    beta = Q.segment_power_integrand(0.0, 1.0,
                                     ((1, 0.0, -0.7), (-1, 1.0, -0.4)))
    aware_faulty = Q.EndpointAware(_faulty(
        lambda t, side, off: beta.fn(t, side, off)))
    # far from 0, so that t - za and zb - t round differently from the
    # offsets that the endpoint-aware integrand receives
    za, zb = 1000.1 + 0.3j, 1000.7 - 0.2j
    skew = Q.segment_power_integrand(za, zb, ((1, za, -0.45), (-1, zb, 0.3)),
                                     extra=lambda t: 3 * (t - za))
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
        (_faulty(lambda t: cmath.exp(-t) * t ** -0.3), 0.0, 2 + 1j, {}),
        (aware_faulty, 0.0, 1.0, {"tol": 1e-13}),
    ]


def _es_cases():
    return [
        (lambda s: math.exp(-s) - 2 * math.exp(-2 * s), {}),
        (lambda s: math.exp(-s) * math.sin(3 * s), {"scale": 0.6}),
        (lambda s: math.exp(-s) * s ** -0.7, {}),
        (lambda s: math.exp(-s / 100), {"scale": 100.0}),
        (lambda s: math.exp(-s * s) * s ** 0.3, {"scale": 0.3, "tol": 1e-14}),
        (_faulty(lambda s: cmath.exp(-s) * s ** (-0.5 + 0.2j)), {}),
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


def test_exp_sinh_table_matches_the_node_table():
    # _es_level keeps e^v and cosh(u) of _de_level(_es_node, level) and
    # the weight at scale 1 as exp_sinh computes it at any scale
    for level in range(10):
        sides = Q._es_level(level)
        assert len(sides) == 2
        for (ev, wgt, ch), side in zip(sides, Q._de_level(Q._es_node, level)):
            triples = list(Q._triples(side))
            assert len(ev) == len(wgt) == len(ch) == len(triples)
            for e, w, c, (_u, a, b) in zip(ev, wgt, ch, triples):
                s = 1.0 * a
                assert _node_bits((e, c)) == _node_bits((a, b))
                assert struct.pack("<d", w) \
                    == struct.pack("<d", s * 0.5 * math.pi * b)


# The three Laplace-type solution evaluators as they were before their
# integrands bound a scalar power per call and hoisted their exponents:
# jpow/jexp at every node, summed by the per-node reference rule.

def _ref_tricomi(th, al, w, tol=1e-11):
    th, al = complex(th), complex(al)
    margins = [(1 + th - s * al).real for s in (1, -1)]
    sgn = 1 if margins[0] >= margins[1] else -1
    a2 = sgn * al
    p = (-1 + th - a2) / 2
    r = (-1 - th - a2) / 2

    def g(s):
        if s > 700.0:
            return 0.0j
        return (s ** p) * math.exp(-s) * N.jpow(w + s, r)

    out = Q._checked(*_ref_exp_sinh(g, tol), tol) * N.rgamma((1 + th - a2) / 2)
    return out * N.jpow(w, -al) if sgn < 0 else out


def _ref_hermite(la, w, tol=1e-11):
    la = complex(la)
    w0 = complex(w)

    def g(s):
        ex = -s * s - 2 * s * w0.real
        if ex < -700.0:
            return 0.0j
        if w0.imag:
            return (s ** (la - 0.5)) * N.jexp(-s * s - 2 * s * w)
        return (s ** (la - 0.5)) * math.exp(ex)

    return (2 ** (la + 0.5)) * N.rgamma(la + 0.5) \
        * Q._checked(*_ref_exp_sinh(g, tol), tol)


def _ref_bessel_tilde(al, w, tol=1e-11):
    al = complex(al)
    w0 = complex(w)

    def g(s):
        if s > 700.0 or w0.real / s > 700.0:
            return 0.0j
        return math.exp(-s) * N.jexp(-w / s) * s ** (-al - 1)

    val, err = _ref_exp_sinh(g, tol, scale=max(1.0, math.sqrt(abs(w0))))
    return Q._checked(val, err, tol) / SQRT_PI


_REFERENCE_SOLUTIONS = [
    (Q.tricomi_solution, _ref_tricomi, (0.23, -0.31),
     (2.5 + 1.5j, 1.7, 0.6 - 2.2j)),
    # margins pick the other sign of alpha: the jpow(w, -al) factor
    (Q.tricomi_solution, _ref_tricomi, (0.2, 0.3), (1.3 + 0.4j,)),
    (Q.hermite_S_solution, _ref_hermite, (0.3,),
     (1.2, 0.8 + 1.1j, -1.0, -3.0 + 0.5j)),
    (Q.hermite_S_solution, _ref_hermite, (0.1 - 0.2j,), (2.4 - 0.7j,)),
    # |w| < 1 keeps the exp-sinh scale at 1.0, |w| > 1 raises it
    (Q.bessel_tilde_solution, _ref_bessel_tilde, (0.3,),
     (0.6 + 0.3j, 0.8, 2.0 + 1.0j, 6.5)),
    (Q.bessel_tilde_solution, _ref_bessel_tilde, (-0.2 + 0.1j,),
     (3.0 - 2.0j,)),
]


@pytest.mark.parametrize("quad, ref, params, ws", _REFERENCE_SOLUTIONS,
                         ids=lambda x: getattr(x, "__name__", None))
def test_solutions_match_the_per_node_reference_bitwise(quad, ref, params,
                                                        ws):
    for w in ws:
        assert _value_bits(quad(*params, w)) \
            == _value_bits(ref(*params, w)), (params, w)


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


_NON_FINITE = [complex(math.nan, 0.0), complex(1.0, math.nan),
               complex(math.inf, 1.0), complex(-math.inf, 1.0),
               complex(1.0, math.inf), complex(1.0, -math.inf)]

# (evaluator, parameters); each also reached through the numerics front end.
# The solution at -infinity has no quadrature of its own: its front end maps
# onto tricomi_solution.  eval_1F1 and eval_0F1 sum a series, which would
# return NaN or fail to converge on a non-finite input.
_SOLUTIONS = [
    (Q.tricomi_solution, N.eval_tricomi, (0.3, 0.2)),
    (None, N.eval_conf_minus_inf, (0.3, 0.2)),
    (Q.hermite_S_solution, N.eval_hermite_S, (0.3,)),
    (Q.hermite_S_solution, N.eval_hermite_S, (-0.8,)),
    (Q.bessel_tilde_solution, N.eval_0f1_tilde, (0.3,)),
    (None, N.eval_1F1, (0.3, 0.2)),
    (None, N.eval_0F1, (0.3,)),
]


@pytest.mark.parametrize("quad, front, params", _SOLUTIONS)
def test_solutions_refuse_non_finite_input(quad, front, params):
    # a NaN node is dropped as a failed one, so the quadrature would
    # return 0 or NaN without an error
    w = 1.5 - 0.5j
    for fn in filter(None, (quad, front)):
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
    for r in rows:
        assert r.family == family
        assert len(r.samples) >= 3


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


def three_way_split_residual(al, be, mu, w, sign=1, tol=1e-10):
    """Relative size of I(-inf,0) + phases * (I(0,1) + I(1,inf)) for the
    integrand (-t)^p (1-t)^q (w-t)^r with Im w < 0, the branches being
    continued clockwise from the left half-line onto the upper lip: zero
    for an exact connection formula, so |sum| / max |piece|."""
    w = complex(w)
    if w.imag >= 0:
        raise N.DomainError("the split is stated for Im w < 0")
    points, exps, _ = rep_rows._euler_2f1(
        (complex(al), complex(be), sign * complex(mu)), w)

    def piece(path, *signs):
        return Q.power_integral(path, tuple(zip(signs, points, exps)), tol)[0]

    i_neg = piece(("ray", 0.0, -1.0), -1, -1, -1)
    i_mid = piece(("seg", 0.0, 1.0), 1, -1, -1)
    i_pos = piece(("ray", 1.0, 1.0), 1, 1, -1)
    p, q, _ = exps
    total = (i_neg + cmath.exp(-1j * math.pi * p) * i_mid
             + cmath.exp(-1j * math.pi * (p + q)) * i_pos)
    return abs(total) / max(abs(i_neg), abs(i_mid), abs(i_pos), 1e-300)


def test_three_way_split():
    for sign in (1, -1):
        r = three_way_split_residual(0.21, 0.13, 0.34, 0.4 - 0.5j, sign)
        assert r < 1e-10


def test_three_way_split_wrong_half_plane():
    with pytest.raises(N.DomainError):
        three_way_split_residual(0.21, 0.13, 0.34, 0.4 + 0.5j)


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
    # a value that is not finite raises, whatever the estimate
    for bad in (complex(math.inf, 0.0), complex(1.0, math.nan)):
        with pytest.raises(Q.QuadratureError):
            Q._checked(bad, 0.0, 1e-11)
