"""Core exact-algebra layer: Gaussian rationals, polynomials, operators,
multipliers, substitutions and jets."""

import cmath
import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperclass import families as fam
from hyperclass.exactalg import (
    RF_ZERO,
    DiffOperator,
    GaussRational,
    LinFactor,
    MultiPoly,
    Multiplier,
    RatFun,
    Substitution,
    jet_apply,
    op_compose,
    op_conjugate,
    op_substitute,
)
from hyperclass.jet import Jet

# ---------------------------------------------------------------------------
# GaussRational
# ---------------------------------------------------------------------------

rationals = st.fractions(
    min_value=-10, max_value=10,
    max_denominator=12)
gaussians = st.builds(GaussRational, rationals, rationals)


@given(gaussians, gaussians, gaussians)
@settings(max_examples=200, deadline=None)
def test_gauss_rational_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(gaussians)
@settings(max_examples=100, deadline=None)
def test_gauss_rational_inverse(x):
    if not x.is_zero():
        assert x / x == GaussRational(1)


def test_gauss_rational_complex_embedding():
    z = GaussRational(Fraction(3, 4), Fraction(-1, 2))
    assert complex(z) == 0.75 - 0.5j


def _by_fractions(op, x, y):
    """op on (re, im) pairs of Fractions, through the public constructor."""
    a, b, c, d = x.re, x.im, y.re, y.im
    if op == "+":
        return GaussRational(a + c, b + d)
    if op == "-":
        return GaussRational(a - c, b - d)
    if op == "*":
        return GaussRational(a * c - b * d, a * d + b * c)
    n = c * c + d * d
    return GaussRational((a * c + b * d) / n, (b * c - a * d) / n)


@given(gaussians, gaussians, st.booleans())
@settings(max_examples=200, deadline=None)
def test_gauss_rational_matches_fraction_arithmetic(x, y, real_y):
    if real_y:
        y = GaussRational(y.re)          # the real x Gaussian path
    assert x + y == _by_fractions("+", x, y)
    assert x - y == _by_fractions("-", x, y)
    assert x * y == _by_fractions("*", x, y)
    assert y * x == _by_fractions("*", y, x)
    if not y.is_zero():
        assert x / y == _by_fractions("/", x, y)
    assert -x == GaussRational(-x.re, -x.im)
    for z in (x + y, x * y, -x):
        assert type(z.re) is Fraction and type(z.im) is Fraction
        assert hash(z) == hash(GaussRational(z.re, z.im))


@given(rationals, rationals)
@settings(max_examples=100, deadline=None)
def test_gauss_rational_parts_hash_and_equality(a, b):
    z = GaussRational(a, b)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (a, b)
    assert hash(z) == hash((Fraction(a), Fraction(b)))
    assert (z == a) == (b == 0)
    assert (z == a.numerator) == (b == 0 and a.denominator == 1)
    assert complex(z) == complex(float(a), float(b))


def test_gauss_rational_int_and_fraction_interplay():
    assert GaussRational(3) == 3 and GaussRational(3, 0) == Fraction(3)
    assert GaussRational(Fraction(6, 4)) == Fraction(3, 2)
    assert GaussRational(0, 1) != 0 and GaussRational(1, 1) != 1
    assert GaussRational(Fraction(1, 2)) != 0.5      # floats never equal
    assert hash(GaussRational(3)) == hash((Fraction(3), Fraction(0)))
    assert GaussRational(2) * 3 == 6 and 3 * GaussRational(0, 2) == \
        GaussRational(0, 6)
    assert GaussRational(1) - Fraction(1, 3) == Fraction(2, 3)
    assert 1 / GaussRational(0, 2) == GaussRational(0, Fraction(-1, 2))
    with pytest.raises(ZeroDivisionError):
        GaussRational(1) / 0
    with pytest.raises(AttributeError):
        GaussRational(1).re = Fraction(2)


# ---------------------------------------------------------------------------
# MultiPoly / RatFun
# ---------------------------------------------------------------------------

def _rand_poly(draw_coeffs):
    w = MultiPoly.var("w")
    a = MultiPoly.var("alpha")
    out = MultiPoly()
    for i, c in enumerate(draw_coeffs):
        out = out + (w ** (i % 3)) * (a ** (i // 3)).scale(c)
    return out


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.builds(_rand_poly, st.lists(small_fracs, min_size=1, max_size=5))


@given(polys, polys, polys)
@settings(max_examples=100, deadline=None)
def test_multipoly_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


@given(polys, polys)
@settings(max_examples=100, deadline=None)
def test_multipoly_eval_is_homomorphism(p, q):
    assign = {"w": 0.3 + 0.7j, "alpha": -1.25 + 0.5j}
    lhs = (p * q).eval_numeric(assign)
    rhs = p.eval_numeric(assign) * q.eval_numeric(assign)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_multipoly_derivative_leibniz():
    w = MultiPoly.var("w")
    a = MultiPoly.var("alpha")
    p = w * w * a + w.scale(3)
    q = w * a - MultiPoly.const(2)
    lhs = (p * q).deriv("w")
    rhs = p.deriv("w") * q + p * q.deriv("w")
    assert lhs == rhs


def test_ratfun_normalization():
    w = MultiPoly.var("w")
    r1 = RatFun(w * w - MultiPoly.const(1), w - MultiPoly.const(1))
    r2 = RatFun(w + MultiPoly.const(1))
    assert r1 == r2
    assert (r1 - r2).is_zero()


def test_ratfun_arithmetic():
    w = MultiPoly.var("w")
    half = RatFun(MultiPoly.const(1), MultiPoly.const(2))
    r = RatFun(MultiPoly.const(1), w)
    assert r * RatFun(w) == RatFun(MultiPoly.const(1))
    v = (r + half).eval_numeric({"w": 4.0})
    assert v == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# DiffOperator
# ---------------------------------------------------------------------------

def _op(var, *coeffs):
    return DiffOperator(var, [RatFun.of(MultiPoly.of(c)) for c in coeffs])


def _op_compose_term_by_term(A, B):
    """Leibniz composition that adds one single-term operator per term:
    the reference that the single-pass op_compose must reproduce."""
    x = A.var
    out = DiffOperator(x, [])
    for k, a in enumerate(A.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(B.coeffs):
            if b.is_zero():
                continue
            bi = b
            for i in range(k + 1):
                c = a * bi * math.comb(k, i)
                term = DiffOperator(x, [RF_ZERO] * (j + k - i) + [c])
                out = out + term
                bi = bi.deriv(x)
        if not B.coeffs:
            break
    return out


def _assert_same_composition(A, B):
    got = op_compose(A, B)
    ref = _op_compose_term_by_term(A, B)
    assert got == ref
    # the terms are added in the same order, so even the unreduced
    # num/den representation (and every float derived from it) agrees
    assert repr(got) == repr(ref)


def _catalog_compositions():
    for f in ("2f1", "gegenbauer", "1f1", "hermite", "0f1"):
        cat = fam.catalog(f)
        Fsym = fam.make_operator_expr(f, "w", fam.symbolic_params(f))
        for row in cat.transmutations:
            weight = RatFun(row.weight)
            Ftgt = fam.make_operator_expr(f, "w", row.target)
            yield row.id + ":lhs", row.A, Fsym.scale(weight)
            yield row.id + ":rhs", Ftgt.scale(weight), row.A
        for row in cat.factorizations:
            yield row.id, row.left, row.right
            yield row.id + ":swapped", row.right, row.left
        for row in cat.recurrences:
            yield row.id, row.A, Fsym


def test_op_compose_matches_term_by_term_on_catalog():
    n = 0
    for _label, A, B in _catalog_compositions():
        _assert_same_composition(A, B)
        n += 1
    assert n > 100


def _ratfun(num_coeffs, den_coeffs):
    den = _rand_poly(den_coeffs)
    return RatFun(_rand_poly(num_coeffs), den if not den.is_zero() else None)


ratfuns = st.builds(_ratfun,
                    st.lists(small_fracs, min_size=0, max_size=4),
                    st.lists(small_fracs, min_size=1, max_size=3))
operators = st.builds(lambda cs: DiffOperator("w", cs),
                      st.lists(ratfuns, min_size=0, max_size=4))


@given(operators, operators)
@settings(max_examples=60, deadline=None)
def test_op_compose_matches_term_by_term_generated(A, B):
    _assert_same_composition(A, B)


def test_op_compose_product_rule():
    w = MultiPoly.var("w")
    D = _op("w", MultiPoly(), MultiPoly.const(1))
    Mw = _op("w", w)
    # [d, w] = 1
    comm = op_compose(D, Mw) - op_compose(Mw, D)
    assert comm == DiffOperator.identity("w")


def test_op_compose_associative():
    w = MultiPoly.var("w")
    A = _op("w", w, MultiPoly.const(1))
    B = _op("w", MultiPoly.const(2), w * w)
    C = _op("w", w - MultiPoly.const(1), w, MultiPoly.const(3))
    assert op_compose(op_compose(A, B), C) == op_compose(A, op_compose(B, C))


def test_op_conjugate_power_multiplier():
    # x^-g o (x d) o x^g = x d + g
    g = MultiPoly.var("alpha")
    w = MultiPoly.var("w")
    m = Multiplier.power("w", 1, 0, g)
    F = _op("w", MultiPoly(), w)
    conj = op_conjugate(F, m)
    assert conj == _op("w", g, w)


def test_op_conjugate_exp_multiplier():
    # e^{-x} o d o e^{x} = d + 1
    m = Multiplier.exp("w", 0, 1, 0)
    conj = op_conjugate(_op("w", MultiPoly(), MultiPoly.const(1)), m)
    assert conj == _op("w", MultiPoly.const(1), MultiPoly.const(1))


def test_op_conjugate_inverse_roundtrip():
    g = MultiPoly.var("alpha")
    w = MultiPoly.var("w")
    m = Multiplier.power("w", 1, -1, g) * Multiplier.exp("w", 0, 0, Fraction(1, 2))
    F = _op("w", g * g, w, w * w)
    back = op_conjugate(op_conjugate(F, m), m.inverse())
    assert back == F


def test_op_substitute_moebius_numeric():
    # w = 1 - v applied to (w d + 1): coefficient transport check by action
    sub = Substitution.moebius("w", "v", -1, 1, 0, 1)
    w = MultiPoly.var("w")
    F = _op("w", MultiPoly.const(1), w)
    G = op_substitute(F, sub)
    # act on g(v) = e^v; f(w) = g(phi^-1(w)) = e^{1-w}
    v0 = 0.3 + 0.2j
    w0 = 1 - v0
    g = Jet.variable(v0, 2).exp()
    lhs = jet_apply(G, g, {"v": v0})[0]
    f = (1 - Jet.variable(w0, 2)).exp()
    rhs = jet_apply(F, f, {"w": w0})[0]
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_op_substitute_quadratic_numeric():
    sub = Substitution.quadratic("w", "v", 1, 0)   # w = v^2
    w = MultiPoly.var("w")
    F = _op("w", MultiPoly(), w)                   # w d/dw
    G = op_substitute(F, sub)                      # = (v/2) d/dv
    v0 = 0.7 + 0.1j
    g = (Jet.variable(v0, 2) * 3).exp()
    lhs = jet_apply(G, g, {"v": v0})[0]
    assert abs(lhs - v0 / 2 * 3 * cmath.exp(3 * v0)) < 1e-12


def test_substitutions_are_equal_by_value():
    sub = Substitution.moebius("w", "v", -1, 1, 0, 1)
    same = Substitution("moebius", (GaussRational.of(-1), Fraction(1), 0, 1),
                        "w", "v")
    assert sub == same and hash(sub) == hash(same)
    assert len({sub, same}) == 1
    for other in (Substitution.moebius("w", "v", -1, 1, 0, 2),
                  Substitution.moebius("w", "u", -1, 1, 0, 1),
                  Substitution.moebius("v", "w", -1, 1, 0, 1),
                  Substitution.quadratic("w", "v", -1, 1)):
        assert sub != other
    assert sub != repr(sub)


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

def test_jet_exp_derivatives():
    z0 = 0.4 + 0.3j
    j = Jet.variable(z0, 4).exp()
    for k in range(5):
        assert abs(j.derivative_value(k) - cmath.exp(z0)) < 1e-13


def test_jet_quotient_rule():
    z0 = 0.8 + 0.2j
    j = Jet.variable(z0, 3)
    q = j.exp() / (j * j + 1)
    f = lambda z: cmath.exp(z) / (z * z + 1)
    h = 1e-5
    num = (f(z0 + h) - f(z0 - h)) / (2 * h)
    assert abs(q.derivative_value(1) - num) < 1e-8


@given(st.complex_numbers(min_magnitude=0.1, max_magnitude=2,
                          allow_nan=False, allow_infinity=False))
@settings(max_examples=50, deadline=None)
def test_jet_sqrt_squares_back(z0):
    j = Jet.variable(z0, 3)
    sq = j.sqrt()
    assert abs((sq * sq).value() - z0) < 1e-10
    assert abs((sq * sq).derivative_value(1) - 1) < 1e-8


def test_jet_apply_second_order():
    # (d^2 + w d)(e^{2w}) = (4 + 2w)e^{2w}
    w = MultiPoly.var("w")
    F = _op("w", MultiPoly(), w, MultiPoly.const(1))
    w0 = 0.25 - 0.6j
    f = (Jet.variable(w0, 2) * 2).exp()
    got = jet_apply(F, f, {"w": w0})[0]
    assert abs(got - (4 + 2 * w0) * cmath.exp(2 * w0)) < 1e-12


def test_multiplier_eval_numeric():
    g = MultiPoly.var("alpha")
    m = Multiplier.power("v", 1, -1, g) * Multiplier.exp("v", 0, Fraction(1, 2), 0)
    v0 = 2.5
    val = m.eval_numeric(v0, {"alpha": 0.3})
    assert val == pytest.approx((v0 - 1) ** 0.3 * math.exp(v0 / 2))


# ---------------------------------------------------------------------------
# Jet arithmetic against the lift-then-convolve reference
# ---------------------------------------------------------------------------
#
# Jet acts on a scalar operand's coefficients directly.  The reference below
# is the arithmetic it replaced: lift the scalar to the constant jet
# (s, 0, ..., 0) and apply the jet-by-jet operation.  Results must agree bit
# for bit, signs of zero parts and NaN patterns included.

def _ref_lift(s, n):
    return [complex(s)] + [complex(0.0)] * n


def _ref_add(x, y):
    return [a + b for a, b in zip(x, y)]


def _ref_neg(x):
    return [-a for a in x]


def _ref_mul(x, y):
    n = len(x) - 1
    out = [0j] * (n + 1)
    for i, a in enumerate(x):
        if a == 0:
            continue
        for j in range(0, n + 1 - i):
            out[i + j] += a * y[j]
    return out


def _ref_div(x, y):
    if y[0] == 0:
        raise ZeroDivisionError("jet division by zero constant term")
    n = len(x) - 1
    out = [0j] * (n + 1)
    inv0 = 1.0 / y[0]
    for k in range(n + 1):
        s = x[k]
        for j in range(1, k + 1):
            s -= y[j] * out[k - j]
        out[k] = s * inv0
    return out


def _ref_exp(x):
    n = len(x) - 1
    out = [cmath.exp(x[0])] + [0j] * n
    for k in range(1, n + 1):
        s = 0j
        for j in range(1, k + 1):
            s += j * x[j] * out[k - j]
        out[k] = s / k
    return out


def _ref_log(x):
    if x[0] == 0:
        raise ValueError("jet log at zero")
    n = len(x) - 1
    out = [cmath.log(x[0])] + [0j] * n
    for k in range(1, n + 1):
        s = k * x[k]
        for j in range(1, k):
            s -= j * out[j] * x[k - j]
        out[k] = s / (k * x[0])
    return out


def _ref_pow(x, e):
    n = len(x) - 1
    if isinstance(e, int):
        if e >= 0:
            out = _ref_lift(1.0, n)
            for _ in range(e):
                out = _ref_mul(out, x)
            return out
        return _ref_div(_ref_lift(1.0, n), _ref_pow(x, -e))
    return _ref_exp(_ref_mul(_ref_log(x), _ref_lift(e, n)))


# (name, Jet operation on (jet, s), reference on (coefficients, lifted s))
_SCALAR_OPS = [
    ("j+s", lambda j, s: j + s, lambda x, c: _ref_add(x, c)),
    ("s+j", lambda j, s: s + j, lambda x, c: _ref_add(x, c)),
    ("j-s", lambda j, s: j - s, lambda x, c: _ref_add(x, _ref_neg(c))),
    ("s-j", lambda j, s: s - j, lambda x, c: _ref_add(c, _ref_neg(x))),
    ("j*s", lambda j, s: j * s, lambda x, c: _ref_mul(x, c)),
    ("s*j", lambda j, s: s * j, lambda x, c: _ref_mul(x, c)),
    ("j/s", lambda j, s: j / s, lambda x, c: _ref_div(x, c)),
    ("s/j", lambda j, s: s / j, lambda x, c: _ref_div(c, x)),
]

_JET_OPS = [
    ("j+k", lambda j, k: j + k, _ref_add),
    ("j-k", lambda j, k: j - k, lambda x, y: _ref_add(x, _ref_neg(y))),
    ("j*k", lambda j, k: j * k, _ref_mul),
    ("j/k", lambda j, k: j / k, _ref_div),
]

_SPECIAL_COEFFS = [0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                   complex(-0.0, -0.0), complex(-1.0, 0.0),
                   complex(2.5, -0.0), complex(-0.0, -3.0), 1e308 + 1e308j,
                   complex(math.inf, 0.0), complex(math.nan, 1.0)]

_SCALARS = [3, -2, 0, 0.5, -1.0, -0.0, 1e-300, 1e300, complex(-1.5, 0.0),
            complex(0.0, -2.0), -0j, complex(-0.0, -0.0), 0.3 - 0.7j,
            Fraction(-3, 7), Fraction(0), Fraction(5, 2)]


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


def _outcome(fn, *args):
    """The coefficients' bit patterns, or the exception type raised."""
    try:
        got = fn(*args)
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        return type(exc)
    coeffs = got.coeffs if isinstance(got, Jet) else got
    assert all(type(c) is complex for c in coeffs)
    return [_bits(c) for c in coeffs]


def _random_jet(rng, order, special_rate):
    center = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    coeffs = []
    for _ in range(order + 1):
        if rng.random() < special_rate:
            coeffs.append(rng.choice(_SPECIAL_COEFFS))
        else:
            coeffs.append(complex(rng.choice([rng.uniform(-3, 3), 0.0, -0.0]),
                                  rng.choice([rng.uniform(-3, 3), 0.0, -0.0])))
    return Jet(center, coeffs)


def test_jet_scalar_and_jet_arithmetic_bitwise_match_reference():
    rng = random.Random(20261018)
    for trial in range(400):
        order = trial % 6
        j = _random_jet(rng, order, special_rate=0.3)
        k = _random_jet(rng, order, special_rate=0.3)
        k = Jet(j.center, k.coeffs)
        scalars = _SCALARS + [rng.uniform(-5, 5),
                              complex(rng.uniform(-5, 5), rng.uniform(-5, 5))]
        x = list(j.coeffs)
        for s in scalars:
            lifted = _ref_lift(s, order)
            for name, op, ref in _SCALAR_OPS:
                assert _outcome(op, j, s) == _outcome(ref, x, lifted), \
                    (name, j, s)
        for name, op, ref in _JET_OPS:
            assert _outcome(op, j, k) == _outcome(ref, x, list(k.coeffs)), \
                (name, j, k)


def _mp_pow(mpmath, x, e):
    """Taylor coefficients of x^e, principal branch, through the log and
    exp recurrences in mpmath's working precision.  The branch of log x_0
    follows the sign of a zero imaginary part, as cmath's does."""
    x0 = x[0]
    x = [mpmath.mpc(c) for c in x]
    n = len(x) - 1
    log0 = mpmath.log(x[0])
    if x0.imag == 0 and x0.real < 0 and math.copysign(1.0, x0.imag) < 0:
        log0 = mpmath.conj(log0)
    lg = [log0] + [mpmath.mpc(0)] * n
    for k in range(1, n + 1):
        s = k * x[k]
        for j in range(1, k):
            s -= j * lg[j] * x[k - j]
        lg[k] = s / (k * x[0])
    out = [mpmath.exp(e * lg[0])] + [mpmath.mpc(0)] * n
    for k in range(1, n + 1):
        out[k] = sum(j * e * lg[j] * out[k - j] for j in range(1, k + 1)) / k
    return out


def test_jet_exp_log_pow_bitwise_match_reference():
    """exp, log and integer powers; the other exponents take the power
    recurrence, checked against mpmath below."""
    rng = random.Random(1018)
    for trial in range(300):
        j = _random_jet(rng, trial % 6, special_rate=0.15)
        x = list(j.coeffs)
        assert _outcome(Jet.exp, j) == _outcome(_ref_exp, x), j
        for e in (0, 1, 3, -2):
            assert _outcome(j.pow, e) == _outcome(_ref_pow, x, e), (j, e)


def test_jet_pow_recurrence_matches_log_exp_reference():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(1018)
    worst = 0.0
    with mpmath.workdps(40):
        for trial in range(300):
            j = _random_jet(rng, trial % 6, special_rate=0.15)
            x = list(j.coeffs)
            finite = all(abs(c) < 1e300 for c in x)
            for e in (0.5, -0.3 + 0.2j, 2.0, 1.5 - 2j):
                got = _outcome(j.pow, e)
                ref = _outcome(_ref_pow, x, e)
                if isinstance(ref, type):
                    assert got is ref, (j, e)
                    continue
                assert not isinstance(got, type), (j, e, got)
                if finite:
                    mp = _mp_pow(mpmath, x, e)
                    err = max(abs(g - r) for g, r in zip(j.pow(e).coeffs, mp))
                    worst = max(worst, float(err / max(map(abs, mp))))
    assert worst <= 1e-14, worst


def test_jet_public_constructor_coerces_and_operands_must_match():
    j = Jet(0, [1, 2])
    assert type(j.center) is complex
    assert all(type(c) is complex for c in j.coeffs)
    other_center = Jet(1, [1, 2])
    other_order = Jet(0, [1, 2, 3])
    for op in (lambda a, b: a + b, lambda a, b: a - b,
               lambda a, b: a * b, lambda a, b: a / b):
        for bad in (other_center, other_order):
            with pytest.raises(ValueError):
                op(j, bad)
