"""Numerical evaluation of the five equation families.

Double-precision evaluation of the hypergeometric-class functions in
Lie-algebraic parameters: power series with compensated summation,
asymptotic series with optimal truncation, analytic continuation of the
Gauss function, the standard solutions of each family (with their
alternative expressions for cross-checking), the gamma-matrix connection
coefficients, and normalized variants whose recurrence coefficients are
polynomial.

All evaluators are jet-polymorphic: the argument may be a complex number
or an `exactalg.Jet`, in which case derivatives come along for free.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .exactalg import Jet, _jet, _jet_mul, _jet_scale

Number = Union[int, float, complex, Fraction]


# ---------------------------------------------------------------------------
# Exceptions
# ---------------------------------------------------------------------------

class NumericsError(Exception):
    """Base class for numeric evaluation failures."""


class GammaPoleError(NumericsError):
    """Gamma evaluated at a non-positive integer."""


class DegeneracyError(NumericsError):
    """A connection/continuation formula degenerates (integer parameter)."""


class ConvergenceError(NumericsError):
    """A series failed to converge to the requested tolerance."""

    def __init__(self, message, best=None, estimate=None):
        super().__init__(message)
        self.best = best
        self.estimate = estimate


class DomainError(NumericsError):
    """Argument outside the admissible domain of the evaluation."""


# ---------------------------------------------------------------------------
# Gamma function (Lanczos, g = 607/128, 15 coefficients)
# ---------------------------------------------------------------------------

_LANCZOS_G = 607.0 / 128.0

_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _as_complex(z: Number) -> complex:
    t = type(z)
    if t is complex:
        return z
    if t is float or t is int:
        return complex(z)
    if isinstance(z, Fraction):
        return complex(float(z))
    return complex(z)


def is_nonpositive_integer(z: Number, tol: float = 1e-12) -> bool:
    z = _as_complex(z)
    if abs(z.imag) > tol:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= tol


def gamma(z: Number) -> complex:
    """Complex gamma function; raises GammaPoleError at the poles."""
    z = _as_complex(z)
    if is_nonpositive_integer(z):
        raise GammaPoleError(f"gamma pole at {z}")
    if z.real < 0.5:
        # reflection formula
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    z -= 1.0
    s = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (z + k)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_2PI * t ** (z + 0.5) * cmath.exp(-t) * s


def rgamma(z: Number) -> complex:
    """1/gamma; entire, returns 0 at the poles of gamma."""
    z = _as_complex(z)
    if is_nonpositive_integer(z):
        return 0.0 + 0.0j
    return 1.0 / gamma(z)


def sinpi(z: Number) -> complex:
    return cmath.sin(math.pi * _as_complex(z))


def pochhammer(x: Number, n: int) -> complex:
    """(x)_n = x (x+1) ... (x+n-1)."""
    x = _as_complex(x)
    out = 1.0 + 0.0j
    for k in range(n):
        out *= x + k
    return out


# ---------------------------------------------------------------------------
# Jet-polymorphic scalar helpers
# ---------------------------------------------------------------------------

# `type(x) is Jet` and `type(x) is complex` are tested inline: these run
# once or more per quadrature node and series term.

def is_jet(x) -> bool:
    return type(x) is Jet


def jexp(x):
    t = type(x)
    if t is Jet:
        return x.exp()
    return cmath.exp(x if t is complex else _as_complex(x))


def jpow(x, e):
    """x**e for complex or Jet base and complex exponent (principal branch)."""
    if type(e) is not complex:
        e = _as_complex(e)
    t = type(x)
    if t is Jet:
        return x.pow(e)
    if t is not complex:
        x = _as_complex(x)
    if x == 0:
        return 0.0j if e.real > 0 else cmath.inf
    return cmath.exp(e * cmath.log(x))


def jsqrt(x):
    return x.sqrt() if is_jet(x) else cmath.sqrt(_as_complex(x))


def jvalue(x) -> complex:
    t = type(x)
    if t is Jet:
        return x.coeffs[0]
    return x if t is complex else _as_complex(x)


def jabs(x) -> float:
    t = type(x)
    if t is Jet:
        return abs(x.coeffs[0])
    return abs(x if t is complex else _as_complex(x))


# ---------------------------------------------------------------------------
# Power series
# ---------------------------------------------------------------------------

MAX_SERIES_TERMS = 10000


def pfq_series(num: Sequence[Number], den: Sequence[Number], z,
               tol: float = 1e-17, max_terms: int = MAX_SERIES_TERMS):
    """Generalized hypergeometric series sum_k prod(num)_k / prod(den)_k z^k/k!.

    `z` may be complex or a Jet.  Scalar sums use compensated (Kahan)
    summation.  Raises ConvergenceError if `max_terms` is hit before three
    consecutive terms fall below tol * |sum|.
    """
    num = [_as_complex(p) for p in num]
    den = [_as_complex(q) for q in den]
    for q in den:
        if is_nonpositive_integer(q):
            raise GammaPoleError(f"series denominator parameter {q}")
    if is_jet(z):
        # on coefficient tuples, rounded as the Jet operations round
        zc = z.coeffs
        term = (1.0 + 0j,) + (0j,) * z.order
        total = term
        small = 0
        for k in range(max_terms):
            fac = 1.0 + 0.0j
            for p in num:
                fac *= p + k
            for q in den:
                fac /= q + k
            term = _jet_scale(_jet_mul(term, zc), fac / (k + 1))
            total = [a + b for a, b in zip(total, term)]
            scale = max(abs(total[0]), 1e-300)
            if abs(term[0]) < tol * scale:
                small += 1
                if small >= 3:
                    return _jet(z.center, total)
            else:
                small = 0
        raise ConvergenceError("series did not converge",
                               best=_jet(z.center, total))
    z = _as_complex(z)
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    comp = 0.0j
    small = 0
    for k in range(max_terms):
        fac = 1.0 + 0.0j
        for p in num:
            fac *= p + k
        for q in den:
            fac /= q + k
        term = term * z * fac / (k + 1)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) < tol * max(abs(total), 1e-300):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise ConvergenceError("series did not converge", best=total)


def hyp2f1_series(a, b, c, z):
    return pfq_series((a, b), (c,), z)


def hyp1f1_series(a, c, z):
    return pfq_series((a,), (c,), z)


def hyp0f1_series(c, z):
    return pfq_series((), (c,), z)


def eval_2F0_asymptotic(a, b, z, tol: float = 1e-15):
    """Optimally truncated asymptotic sum of 2F0(a,b;-;z).

    Returns (value, error_estimate); the estimate is the magnitude of the
    first omitted term.  Works for complex or Jet `z`.
    """
    a = _as_complex(a)
    b = _as_complex(b)
    z0 = jvalue(z)
    if is_jet(z):
        term = Jet.constant(1.0, z.center, z.order)
    else:
        term = 1.0 + 0.0j
        z = _as_complex(z)
    total = term
    prev = 1.0
    best_err = None
    for k in range(400):
        nxt = term * z * ((a + k) * (b + k) / (k + 1))
        mag = jabs(nxt)
        if mag < tol * max(jabs(total), 1e-300):
            return total + nxt, mag
        if mag > prev and k >= 1:
            # divergence onset: stop before adding the growing term
            return total, mag
        term = nxt
        total = total + term
        prev = mag
        best_err = mag
    return total, best_err if best_err is not None else float("inf")


# ---------------------------------------------------------------------------
# Gauss 2F1: analytic continuation in Lie-algebraic parameters
# ---------------------------------------------------------------------------
#
# Lie parameters (alpha, beta, mu) correspond to the classical
#   a = (1+alpha+beta+mu)/2, b = (1+alpha+beta-mu)/2, c = 1+alpha.

def _lie_abc(al, be, mu):
    al = _as_complex(al)
    be = _as_complex(be)
    mu = _as_complex(mu)
    return ((1 + al + be + mu) / 2, (1 + al + be - mu) / 2, 1 + al)


SERIES_RADIUS = 0.6
INNER_RADIUS = 0.75
_DEGENERACY_EPS = 1e-6


def _near_integer(z: complex, eps: float = _DEGENERACY_EPS) -> bool:
    z = _as_complex(z)
    return abs(z.imag) < eps and abs(z.real - round(z.real)) < eps


def _series_or_pfaff(al, be, mu, z, radius=INNER_RADIUS):
    """2F1 via direct series or Pfaff, requiring one of the two arguments
    to have modulus <= radius."""
    a, b, c = _lie_abc(al, be, mu)
    z0 = jvalue(z)
    r_direct = abs(z0)
    r_pfaff = abs(z0 / (z0 - 1)) if z0 != 1 else float("inf")
    if r_direct <= min(r_pfaff, radius):
        return hyp2f1_series(a, b, c, z)
    if r_pfaff <= radius:
        # F_{al,be,mu}(z) = (1-z)^{(-1-al-be-mu)/2} F_{al,mu,be}(z/(z-1))
        al_c = _as_complex(al)
        be_c = _as_complex(be)
        mu_c = _as_complex(mu)
        pref = jpow(1 - z, (-1 - al_c - be_c - mu_c) / 2)
        a2, b2, c2 = _lie_abc(al, mu, be)
        return pref * hyp2f1_series(a2, b2, c2, z / (z - 1))
    raise DomainError(f"inner 2F1 argument {z0} out of range")


def _eval_2f1_inf_route(al, be, mu, w):
    """Continuation via the basis at infinity (valid off [0, +inf))."""
    al = _as_complex(al)
    be = _as_complex(be)
    mu = _as_complex(mu)
    if _near_integer(mu):
        raise DegeneracyError("mu is (close to) an integer")
    A = connection_matrix_2f1(al, be, mu)
    iw = 1 / w
    f1 = jpow(-w, (-1 - al - be - mu) / 2) * _series_or_pfaff(mu, be, al, iw) \
        * rgamma(1 + mu)
    f2 = jpow(-w, (-1 - al - be + mu) / 2) * _series_or_pfaff(-mu, be, -al, iw) \
        * rgamma(1 - mu)
    # first row of the connection identity gives bold-F_{al,be,mu}(w)
    bold = A[0][0] * f1 + A[0][1] * f2
    return bold * gamma(1 + al)


def _eval_2f1_one_route(al, be, mu, w):
    """Continuation via the basis at 1 (classical Gauss connection)."""
    al = _as_complex(al)
    be = _as_complex(be)
    mu = _as_complex(mu)
    if _near_integer(be):
        raise DegeneracyError("beta is (close to) an integer")
    a, b, c = _lie_abc(al, be, mu)
    z = 1 - w
    c1 = gamma(c) * gamma(-be) * rgamma((1 + al - be - mu) / 2) \
        * rgamma((1 + al - be + mu) / 2)
    c2 = gamma(c) * gamma(be) * rgamma(a) * rgamma(b)
    t1 = c1 * _series_or_pfaff(be, al, mu, z)
    t2 = c2 * jpow(z, -be) * _series_or_pfaff(-be, al, -mu, z)
    return t1 + t2


def _taylor_coeffs_2f1(a, b, c, z0, f0, f1, order):
    """Taylor coefficients of the Gauss function at z0 from the ODE
    z(1-z) f'' + (c - (a+b+1) z) f' - a b f = 0, seeded by (f0, f1)."""
    s0 = z0 * (1 - z0)
    s1 = 1 - 2 * z0
    t0 = c - (a + b + 1) * z0
    t1 = -(a + b + 1)
    cs = [f0, f1] + [0j] * (order - 1)
    for n in range(order - 1):
        cs[n + 2] = -((s1 * n + t0) * (n + 1) * cs[n + 1]
                      + (-n * (n - 1) + t1 * n - a * b) * cs[n]) \
            / (s0 * (n + 2) * (n + 1))
    return cs


def _cut_distance(z: complex) -> float:
    """Distance from z to the cut [1, +infinity)."""
    if z.real >= 1:
        return abs(z.imag)
    return abs(z - 1)


def _eval_2f1_taylor_fallback(al, be, mu, w, order: int = 48):
    """Analytic continuation by Taylor stepping along a straight path.

    Works for any parameters (no gamma factors involved) and any w off
    the cut [1, +infinity).  Used when the closed-form continuation
    routes are unavailable (argument ring |w| ~ |1-w| ~ 1) or degenerate
    (integer parameters).
    """
    a, b, c = _lie_abc(al, be, mu)
    w0 = jvalue(w)
    if w0.imag == 0 and w0.real >= 1:
        raise DomainError("argument on the cut [1, inf)")
    z = 0.45 * w0 / max(abs(w0), 1e-300)
    seed = hyp2f1_series(a, b, c, Jet.variable(z, 1))
    f0, f1 = seed.coeffs[0], seed.coeffs[1]
    for _ in range(300):
        dist = _cut_distance(z)
        remaining = w0 - z
        max_step = 0.38 * dist
        cs = _taylor_coeffs_2f1(a, b, c, z, f0, f1, order)
        if abs(remaining) <= max_step:
            if is_jet(w):
                h = w - z
                total = Jet.constant(0.0, w.center, w.order)
                power = Jet.constant(1.0, w.center, w.order)
                for k in range(order + 1):
                    total = total + power * cs[k]
                    power = power * h
                return total
            total = 0.0j
            power = 1.0 + 0.0j
            for k in range(order + 1):
                total += cs[k] * power
                power *= remaining
            return total
        h = remaining / abs(remaining) * max_step
        nf0 = 0.0j
        nf1 = 0.0j
        power = 1.0 + 0.0j
        for k in range(order + 1):
            nf0 += cs[k] * power
            if k + 1 <= order:
                nf1 += (k + 1) * cs[k + 1] * power
            power *= h
        z = z + h
        f0, f1 = nf0, nf1
    raise ConvergenceError("Taylor continuation did not reach the target")


def eval_2F1(al, be, mu, w):
    """Gauss 2F1 in Lie parameters, continued over the cut plane.

    `w` may be complex or a Jet; the cut is [1, +inf) (principal branch).
    """
    w0 = jvalue(w)
    a, b, c = _lie_abc(al, be, mu)
    if is_nonpositive_integer(c):
        raise GammaPoleError("lower parameter c is a non-positive integer")
    if abs(w0) <= SERIES_RADIUS:
        return hyp2f1_series(a, b, c, w)
    if w0 != 1 and abs(w0 / (w0 - 1)) <= SERIES_RADIUS:
        return _series_or_pfaff(al, be, mu, w)
    if abs(w0 - 1) < 1e-13:
        raise DomainError("argument at the singular point 1")
    b_inf = min(1 / abs(w0), 1 / abs(1 - w0))
    b_one = min(abs(1 - w0), abs(1 - w0) / abs(w0))
    routes = sorted((("inf", b_inf), ("one", b_one)), key=lambda kv: kv[1])
    last_exc = None
    for name, bound in routes:
        if bound > INNER_RADIUS:
            continue
        try:
            if name == "inf":
                if w0.imag == 0 and w0.real >= 0:
                    raise DomainError("infinity route needs w off [0, inf)")
                return _eval_2f1_inf_route(al, be, mu, w)
            return _eval_2f1_one_route(al, be, mu, w)
        except (DegeneracyError, DomainError) as exc:
            last_exc = exc
    # universal fallback: ODE-based Taylor stepping (handles the ring
    # |w| ~ |1-w| ~ 1 and integer-parameter degeneracies alike)
    return _eval_2f1_taylor_fallback(al, be, mu, w)


def hyp2f1(a, b, c, z):
    """Gauss function in classical parameters (wrapper over eval_2F1)."""
    a = _as_complex(a)
    b = _as_complex(b)
    c = _as_complex(c)
    return eval_2F1(c - 1, a + b - c, a - b, z)


# ---------------------------------------------------------------------------
# Confluent / 0F1 evaluators (Lie parameters)
# ---------------------------------------------------------------------------

def eval_1F1(th, al, w):
    """Kummer's function F_{theta,alpha}(w) = 1F1((1+al+th)/2; 1+al; w)."""
    th = _as_complex(th)
    al = _as_complex(al)
    a = (1 + al + th) / 2
    c = 1 + al
    if jvalue(w).real < 0:
        # 1st Kummer transformation avoids cancellation for Re w < 0
        return jexp(w) * hyp1f1_series(c - a, c, -w)
    return hyp1f1_series(a, c, w)


def eval_0F1(al, w):
    """0F1(1+al; w)."""
    return hyp0f1_series(1 + _as_complex(al), w)


def tilde_F_2f0(th, al, z, tol: float = 1e-15):
    """Asymptotic 2F0-type function tilde-F_{theta,alpha}(z).

    Returns (value, error_estimate); accurate only for small |z|.
    """
    th = _as_complex(th)
    al = _as_complex(al)
    a = (1 + al + th) / 2
    b = (1 - al + th) / 2
    return eval_2F0_asymptotic(a, b, z, tol)


# ---------------------------------------------------------------------------
# Normalized variants (bold / superscript-I normalizations)
# ---------------------------------------------------------------------------

def bold_F_2f1(al, be, mu, w):
    """F_{al,be,mu}(w) / Gamma(1+al)."""
    return rgamma(1 + _as_complex(al)) * eval_2F1(al, be, mu, w)


def FI_2f1(al, be, mu, w):
    """Gamma((1+al+be-mu)/2) Gamma((1+al-be+mu)/2) * bold_F_2f1."""
    al = _as_complex(al)
    be = _as_complex(be)
    mu = _as_complex(mu)
    return gamma((1 + al + be - mu) / 2) * gamma((1 + al - be + mu) / 2) \
        * bold_F_2f1(al, be, mu, w)


def bold_F_1f1(th, al, w):
    return rgamma(1 + _as_complex(al)) * eval_1F1(th, al, w)


def FI_1f1(th, al, w):
    th = _as_complex(th)
    al = _as_complex(al)
    return gamma((1 + al + th) / 2) * gamma((1 + al - th) / 2) \
        * rgamma(1 + al) * eval_1F1(th, al, w)


def bold_F_0f1(al, w):
    return rgamma(1 + _as_complex(al)) * eval_0F1(al, w)


def eval_geg_S(al, la, w):
    """Gegenbauer solution S_{al,la}(w) = F_{al,al,2la}((1-w)/2)."""
    al = _as_complex(al)
    la = _as_complex(la)
    return eval_2F1(al, al, 2 * la, (1 - w) / 2)


def bold_S_geg(al, la, w):
    return rgamma(1 + _as_complex(al)) * eval_geg_S(al, la, w)


def SI_geg(al, la, w):
    al = _as_complex(al)
    la = _as_complex(la)
    return 2 ** complex(-0.5 - al - la) * gamma(0.5 + al + la) \
        * gamma(0.5 - la) * rgamma(1 + al) * eval_geg_S(al, la, w)


def SII_geg(al, la, w):
    al = _as_complex(al)
    la = _as_complex(la)
    return gamma(0.5 + al - la) * gamma(0.5 + al + la) * rgamma(1 + 2 * al) \
        * eval_geg_S(al, la, w)


def S0_geg(al, la, w):
    al = _as_complex(al)
    return math.sqrt(math.pi) * gamma(0.5 + al) * rgamma(1 + al) \
        * eval_geg_S(al, la, w)


def SI_hermite(la, w, tol: float = 1e-12):
    """S^I_lambda(w) = 2^{-la-1/2} Gamma(la+1/2) S_lambda(w)."""
    la = _as_complex(la)
    return 2 ** (-la - 0.5) * gamma(la + 0.5) * eval_hermite_S(la, w, tol)


# ---------------------------------------------------------------------------
# Solutions needing asymptotics/quadrature (Tricomi, Hermite, 0F1-tilde)
# ---------------------------------------------------------------------------

ASYMPTOTIC_CROSSOVER = 4.0


def _try_asymptotic(value_err, tol, scale=None):
    value, err = value_err
    ref = abs(scale) if scale is not None else max(jabs(value), 1e-300)
    return (value, err) if err <= tol * ref else None


def eval_tricomi(th, al, w, tol: float = 1e-11):
    """Solution ~ w^{-a} at +infinity of the confluent equation:
    w^{(-1-th-al)/2} tilde-F_{th,al}(-1/w).   Cut: (-inf, 0]."""
    th = _as_complex(th)
    al = _as_complex(al)
    w0 = jvalue(w)
    if w0.imag == 0 and w0.real <= 0:
        raise DomainError("Tricomi solution evaluated on its cut")
    pref = jpow(w, (-1 - th - al) / 2)
    if abs(w0) >= ASYMPTOTIC_CROSSOVER:
        got = tilde_F_2f0(th, al, -1 / w, tol)
        ok = _try_asymptotic(got, tol)
        if ok is not None:
            return pref * ok[0]
    from . import quadrature
    return quadrature.tricomi_solution(th, al, w, tol)


def eval_conf_minus_inf(th, al, w, tol: float = 1e-11):
    """Solution ~ (-w)^{b-1} e^w at -infinity of the confluent equation:
    e^w (-w)^{(-1+th-al)/2} tilde-F_{-th,al}(1/w).  Cut: [0, +inf)."""
    th = _as_complex(th)
    al = _as_complex(al)
    w0 = jvalue(w)
    if w0.imag == 0 and w0.real >= 0:
        raise DomainError("solution evaluated on its cut [0, inf)")
    pref = jexp(w) * jpow(-w, (-1 + th - al) / 2)
    if abs(w0) >= ASYMPTOTIC_CROSSOVER:
        got = tilde_F_2f0(-th, al, 1 / w, tol)
        ok = _try_asymptotic(got, tol)
        if ok is not None:
            return pref * ok[0]
    from . import quadrature
    return quadrature.conf_minus_inf_solution(th, al, w, tol)


def eval_hermite_S(la, w, tol: float = 1e-11):
    """Hermite solution S_lambda(w) ~ w^{-la-1/2} at +infinity.
    Cut: (-inf, 0]."""
    la = _as_complex(la)
    w0 = jvalue(w)
    if w0.imag == 0 and w0.real <= 0:
        raise DomainError("S_lambda evaluated on its cut")
    if abs(w0) >= ASYMPTOTIC_CROSSOVER:
        got = eval_2F0_asymptotic(la / 2 + 0.75, la / 2 + 0.25,
                                  -1 / (w * w), tol)
        ok = _try_asymptotic(got, tol)
        if ok is not None:
            return jpow(w, -la - 0.5) * ok[0]
    from . import quadrature
    return quadrature.hermite_S_solution(la, w, tol)


def eval_0f1_tilde(al, w, tol: float = 1e-11):
    """0F1-class solution ~ e^{-2 sqrt(w)} w^{-al/2-1/4} at +infinity.
    Cut: (-inf, 0]."""
    al = _as_complex(al)
    w0 = jvalue(w)
    if w0.imag == 0 and w0.real <= 0:
        raise DomainError("tilde solution evaluated on its cut")
    sq = jsqrt(w)
    if 4 * abs(cmath.sqrt(w0)) >= 25.0:
        got = tilde_F_2f0(0, 2 * al, -1 / (4 * sq), tol)
        ok = _try_asymptotic(got, tol)
        if ok is not None:
            return jexp(-2 * sq) * jpow(w, -al / 2 - 0.25) * ok[0]
    if w0.real <= 0:
        raise DomainError("quadrature route needs Re w > 0")
    from . import quadrature
    return quadrature.bessel_tilde_solution(al, w, tol)


# ---------------------------------------------------------------------------
# Connection matrices
# ---------------------------------------------------------------------------

def connection_matrix_2f1(al, be, mu):
    """2x2 matrix A_{al,be,mu} relating the basis at 0 to the basis at inf."""
    al = _as_complex(al)
    be = _as_complex(be)
    mu = _as_complex(mu)
    s = sinpi(mu)
    if abs(s) < 1e-300:
        raise DegeneracyError("sin(pi mu) = 0")
    f = math.pi / s
    return [
        [-f * rgamma((1 + al + be - mu) / 2) * rgamma((1 + al - be - mu) / 2),
         f * rgamma((1 + al + be + mu) / 2) * rgamma((1 + al - be + mu) / 2)],
        [-f * rgamma((1 - al - be - mu) / 2) * rgamma((1 - al + be - mu) / 2),
         f * rgamma((1 - al - be + mu) / 2) * rgamma((1 - al + be + mu) / 2)],
    ]


def connection_det_2f1(al, be, mu):
    """Closed form of det A_{al,be,mu}."""
    return -sinpi(al) / sinpi(mu)


def connection_matrix_1f1(th, al):
    th = _as_complex(th)
    al = _as_complex(al)
    s = sinpi(al)
    if abs(s) < 1e-300:
        raise DegeneracyError("sin(pi alpha) = 0")
    f = math.pi / s
    e = cmath.exp(-0.5j * math.pi * al)
    return [
        [-f * rgamma((1 + th - al) / 2), f * e * rgamma((1 + th + al) / 2)],
        [-f * rgamma((1 - th - al) / 2), f / e * rgamma((1 - th + al) / 2)],
    ]


def connection_matrix_1f1_inverse(th, al):
    """The printed closed form of A_{th,al}^{-1}."""
    th = _as_complex(th)
    al = _as_complex(al)
    f = 1j * cmath.exp(0.5j * math.pi * th)
    e = cmath.exp(0.5j * math.pi * al)
    return [
        [f * e * rgamma((1 - th + al) / 2), -f / e * rgamma((1 + th + al) / 2)],
        [f * rgamma((1 - th - al) / 2), -f * rgamma((1 + th - al) / 2)],
    ]


def connection_det_1f1(th, al):
    th = _as_complex(th)
    al = _as_complex(al)
    return -1j * math.pi * cmath.exp(-0.5j * math.pi * th) / sinpi(al)


def connection_coeffs_0f1(al):
    """(c_plus, c_minus) with tilde-F_al = c_plus bold-F_al
    + c_minus w^{-al} bold-F_{-al}."""
    al = _as_complex(al)
    s = sinpi(al)
    if abs(s) < 1e-300:
        raise DegeneracyError("sin(pi alpha) = 0")
    rp = math.sqrt(math.pi)
    return (rp / sinpi(-al), rp / s)


# ---------------------------------------------------------------------------
# Standard solutions and their alternative expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolutionDescriptor:
    """One standard solution with its alternative expressions.

    `expressions` is a tuple of callables (params, w, tol) -> value;
    expression 0 is the primary evaluation route.
    """
    family: str
    key: str
    behavior: str
    params: tuple
    expressions: tuple
    domain: str

    def __repr__(self):
        return (f"SolutionDescriptor({self.family}:{self.key}, "
                f"{self.behavior!r}, {len(self.expressions)} expressions)")


# --- Kummer's table for 2F1 ------------------------------------------------
# Each entry: (prefactors, parameter map, argument key) where a prefactor is
# (base_key, exponent_fn(al, be, mu)) and base_key in {"w", "1-w", "-w"}.

_KUMMER_TABLE = {
    # ~1 at 0
    "at0_1": [
        ((), lambda al, be, mu: (al, be, mu), "w"),
        ((("1-w", lambda al, be, mu: -be),),
         lambda al, be, mu: (al, -be, -mu), "w"),
        ((("1-w", lambda al, be, mu: (-1 - al - be + mu) / 2),),
         lambda al, be, mu: (al, -mu, -be), "w/(w-1)"),
        ((("1-w", lambda al, be, mu: (-1 - al - be - mu) / 2),),
         lambda al, be, mu: (al, mu, be), "w/(w-1)"),
    ],
    # ~w^{-alpha} at 0
    "at0_2": [
        ((("w", lambda al, be, mu: -al),),
         lambda al, be, mu: (-al, be, -mu), "w"),
        ((("w", lambda al, be, mu: -al),
          ("1-w", lambda al, be, mu: -be)),
         lambda al, be, mu: (-al, -be, mu), "w"),
        ((("w", lambda al, be, mu: -al),
          ("1-w", lambda al, be, mu: (-1 + al - be + mu) / 2)),
         lambda al, be, mu: (-al, -mu, be), "w/(w-1)"),
        ((("w", lambda al, be, mu: -al),
          ("1-w", lambda al, be, mu: (-1 + al - be - mu) / 2)),
         lambda al, be, mu: (-al, mu, -be), "w/(w-1)"),
    ],
    # ~1 at 1
    "at1_1": [
        ((), lambda al, be, mu: (be, al, mu), "1-w"),
        ((("w", lambda al, be, mu: -al),),
         lambda al, be, mu: (be, -al, -mu), "1-w"),
        ((("w", lambda al, be, mu: (-1 - al - be + mu) / 2),),
         lambda al, be, mu: (be, -mu, -al), "1-1/w"),
        ((("w", lambda al, be, mu: (-1 - al - be - mu) / 2),),
         lambda al, be, mu: (be, mu, al), "1-1/w"),
    ],
    # ~(1-w)^{-beta} at 1
    "at1_2": [
        ((("1-w", lambda al, be, mu: -be),),
         lambda al, be, mu: (-be, al, -mu), "1-w"),
        ((("w", lambda al, be, mu: -al),
          ("1-w", lambda al, be, mu: -be)),
         lambda al, be, mu: (-be, -al, mu), "1-w"),
        ((("w", lambda al, be, mu: (-1 - al + be - mu) / 2),
          ("1-w", lambda al, be, mu: -be)),
         lambda al, be, mu: (-be, mu, -al), "1-1/w"),
        ((("w", lambda al, be, mu: (-1 - al + be + mu) / 2),
          ("1-w", lambda al, be, mu: -be)),
         lambda al, be, mu: (-be, -mu, al), "1-1/w"),
    ],
    # ~w^{-a} at infinity
    "atinf_1": [
        ((("-w", lambda al, be, mu: (-1 - al - be - mu) / 2),),
         lambda al, be, mu: (mu, be, al), "1/w"),
        ((("-w", lambda al, be, mu: (-1 - al + be - mu) / 2),
          ("1-w", lambda al, be, mu: -be)),
         lambda al, be, mu: (mu, -be, -al), "1/w"),
        ((("1-w", lambda al, be, mu: (-1 - al - be - mu) / 2),),
         lambda al, be, mu: (mu, al, be), "1/(1-w)"),
        ((("-w", lambda al, be, mu: -al),
          ("1-w", lambda al, be, mu: (-1 + al - be - mu) / 2)),
         lambda al, be, mu: (mu, -al, -be), "1/(1-w)"),
    ],
    # ~w^{-b} at infinity
    "atinf_2": [
        ((("-w", lambda al, be, mu: (-1 - al - be + mu) / 2),),
         lambda al, be, mu: (-mu, be, -al), "1/w"),
        ((("-w", lambda al, be, mu: (-1 - al + be + mu) / 2),
          ("1-w", lambda al, be, mu: -be)),
         lambda al, be, mu: (-mu, -be, al), "1/w"),
        ((("1-w", lambda al, be, mu: (-1 - al - be + mu) / 2),),
         lambda al, be, mu: (-mu, al, -be), "1/(1-w)"),
        ((("-w", lambda al, be, mu: -al),
          ("1-w", lambda al, be, mu: (-1 + al - be + mu) / 2)),
         lambda al, be, mu: (-mu, -al, be), "1/(1-w)"),
    ],
}

_KUMMER_ORDER = ("at0_1", "at0_2", "at1_1", "at1_2", "atinf_1", "atinf_2")

_BEHAVIOR_2F1 = {
    "at0_1": "~1 at 0",
    "at0_2": "~w^-alpha at 0",
    "at1_1": "~1 at 1",
    "at1_2": "~(1-w)^-beta at 1",
    "atinf_1": "~w^-a at infinity",
    "atinf_2": "~w^-b at infinity",
}


def _kummer_arg(key, w):
    if key == "w":
        return w
    if key == "w/(w-1)":
        return w / (w - 1)
    if key == "1-w":
        return 1 - w
    if key == "1-1/w":
        return 1 - 1 / w
    if key == "1/w":
        return 1 / w
    if key == "1/(1-w)":
        return 1 / (1 - w)
    raise ValueError(key)


def _kummer_base(key, w):
    if key == "w":
        return w
    if key == "1-w":
        return 1 - w
    if key == "-w":
        return -w
    raise ValueError(key)


def eval_kummer_expression(sol_key: str, row: int, al, be, mu, w):
    """Evaluate row `row` (0-3) of Kummer's table for the given solution."""
    prefs, pmap, argkey = _KUMMER_TABLE[sol_key][row]
    al = _as_complex(al)
    be = _as_complex(be)
    mu = _as_complex(mu)
    out = 1.0 + 0.0j
    for base_key, efn in prefs:
        out = out * jpow(_kummer_base(base_key, w), efn(al, be, mu))
    p2 = pmap(al, be, mu)
    return out * eval_2F1(p2[0], p2[1], p2[2], _kummer_arg(argkey, w))


def standard_solutions(family: str, params) -> tuple:
    """Standard solutions of a family with their alternative expressions.

    `params` is the tuple of Lie-parameter values.
    """
    params = tuple(_as_complex(p) for p in params)
    out = []
    if family == "2f1":
        al, be, mu = params
        for key in _KUMMER_ORDER:
            exprs = tuple(
                (lambda k, r: lambda w, tol=1e-11:
                 eval_kummer_expression(k, r, al, be, mu, w))(key, r)
                for r in range(4))
            out.append(SolutionDescriptor(
                "2f1", key, _BEHAVIOR_2F1[key], params, exprs,
                "off the cuts (-inf,0] and [1,inf) as applicable"))
        return tuple(out)
    if family == "gegenbauer":
        al, la = params
        out.append(SolutionDescriptor(
            "gegenbauer", "at1_1", "~1 at 1", params,
            (lambda w, tol=1e-11: eval_2F1(al, al, 2 * la, (1 - w) / 2),
             lambda w, tol=1e-11: eval_2F1(al, -0.5, la, 1 - w * w)),
            "w off (-inf,-1] and [1,inf)"))
        out.append(SolutionDescriptor(
            "gegenbauer", "at1_2", "~2^-alpha (1-w)^-alpha at 1", params,
            (lambda w, tol=1e-11: jpow(2, -al) * jpow(1 - w, -al)
             * eval_2F1(-al, al, -2 * la, (1 - w) / 2),
             lambda w, tol=1e-11: jpow(1 - w * w, -al)
             * eval_2F1(-al, -0.5, -la, 1 - w * w)),
            "w off (-inf,-1] and [1,inf)"))
        out.append(SolutionDescriptor(
            "gegenbauer", "atinf_1", "~w^-a at infinity", params,
            (lambda w, tol=1e-11: jpow(1 + w, -0.5 - al + la)
             * eval_2F1(-2 * la, al, -al, 2 / (1 + w)),
             lambda w, tol=1e-11: jpow(w, -0.5 - al + la)
             * eval_2F1(-la, al, 0.5, 1 / (w * w))),
            "w off (-inf, 1]"))
        out.append(SolutionDescriptor(
            "gegenbauer", "atinf_2", "~w^-b at infinity", params,
            (lambda w, tol=1e-11: jpow(1 + w, -0.5 - al - la)
             * eval_2F1(2 * la, al, al, 2 / (1 + w)),
             lambda w, tol=1e-11: jpow(w, -0.5 - al - la)
             * eval_2F1(la, al, 0.5, 1 / (w * w))),
            "w off (-inf, 1]"))
        return tuple(out)
    if family == "1f1":
        th, al = params
        out.append(SolutionDescriptor(
            "1f1", "at0_1", "~1 at 0", params,
            (lambda w, tol=1e-11: hyp1f1_series((1 + al + th) / 2, 1 + al, w),
             lambda w, tol=1e-11: jexp(w)
             * hyp1f1_series((1 + al - th) / 2, 1 + al, -w)),
            "entire"))
        out.append(SolutionDescriptor(
            "1f1", "at0_2", "~w^-alpha at 0", params,
            (lambda w, tol=1e-11: jpow(w, -al)
             * hyp1f1_series((1 - al + th) / 2, 1 - al, w),
             lambda w, tol=1e-11: jpow(w, -al) * jexp(w)
             * hyp1f1_series((1 - al - th) / 2, 1 - al, -w)),
            "w off (-inf, 0]"))
        out.append(SolutionDescriptor(
            "1f1", "atinf", "~w^-a at +infinity", params,
            (lambda w, tol=1e-11: eval_tricomi(th, al, w, tol),
             lambda w, tol=1e-11: eval_tricomi(th, -al, w, tol)
             * jpow(w, -al)),
            "w off (-inf, 0]"))
        out.append(SolutionDescriptor(
            "1f1", "atminf", "~(-w)^{b-1} e^w at -infinity", params,
            (lambda w, tol=1e-11: eval_conf_minus_inf(th, al, w, tol),
             lambda w, tol=1e-11: eval_conf_minus_inf(th, -al, w, tol)
             * jpow(-w, -al)),
            "w off [0, inf)"))
        return tuple(out)
    if family == "hermite":
        (la,) = params
        out.append(SolutionDescriptor(
            "hermite", "atinf", "~w^{-lambda-1/2} at +infinity", params,
            (lambda w, tol=1e-11: eval_hermite_S(la, w, tol),),
            "w off (-inf, 0]"))
        out.append(SolutionDescriptor(
            "hermite", "atiinf", "~(-iw)^{lambda-1/2} e^{w^2} at +i inf",
            params,
            (lambda w, tol=1e-11: jexp(w * w)
             * eval_hermite_S(-la, w * complex(0, -1), tol),),
            "w off i*[0, inf)"))
        return tuple(out)
    if family == "0f1":
        (al,) = params
        out.append(SolutionDescriptor(
            "0f1", "at0_1", "~1 at 0", params,
            (lambda w, tol=1e-11: hyp0f1_series(1 + al, w),
             lambda w, tol=1e-11: jexp(-2 * jsqrt(w))
             * eval_1F1(0, 2 * al, 4 * jsqrt(w)),
             lambda w, tol=1e-11: jexp(2 * jsqrt(w))
             * eval_1F1(0, 2 * al, -4 * jsqrt(w))),
            "entire (composed expressions need w off (-inf,0])"))
        out.append(SolutionDescriptor(
            "0f1", "at0_2", "~w^-alpha at 0", params,
            (lambda w, tol=1e-11: jpow(w, -al) * hyp0f1_series(1 - al, w),
             lambda w, tol=1e-11: jpow(w, -al) * jexp(-2 * jsqrt(w))
             * eval_1F1(0, -2 * al, 4 * jsqrt(w))),
            "w off (-inf, 0]"))
        out.append(SolutionDescriptor(
            "0f1", "atinf", "~e^{-2 sqrt w} w^{-alpha/2-1/4} at +infinity",
            params,
            (lambda w, tol=1e-11: eval_0f1_tilde(al, w, tol),),
            "w off (-inf, 0]"))
        return tuple(out)
    raise ValueError(f"no standard solutions catalogued for {family!r}")


def eval_solution(d: SolutionDescriptor, w, expr: int = 0, tol: float = 1e-11):
    """Evaluate a standard solution (or one of its alternative expressions)."""
    return d.expressions[expr](w, tol)
