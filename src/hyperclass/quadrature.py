"""Contour quadrature for the integral representations.

Engines
-------
* ``tanh_sinh``  — double-exponential quadrature on a (possibly complex)
  segment with algebraic endpoint singularities;
* ``exp_sinh``   — double-exponential quadrature on a ray [0, inf) with an
  algebraic singularity at 0 and exponential or algebraic decay;
* loop contours around the negative axis (keyhole / double-ray), where the
  branch factor t^gamma collapses the two lips into a sine factor, plus an
  explicitly parametrized circle;
* a phase-tracked polyline/arc loop (`path_integral`) for contours that
  must encircle several branch points at once.

Circles, arcs and polyline pieces use one composite 16-point
Gauss-Legendre rule (`_gl_rule`), whose nodes come from Newton's method on
P_16, so the module needs nothing beyond the standard library.

The solution evaluators (`tricomi_solution`, `conf_minus_inf_solution`,
`hermite_S_solution`, `bessel_tilde_solution`) raise `QuadratureError`
when the error estimate misses the requested tolerance by a wide margin.

On top of the engines sits the catalog of every printed integral
representation (`integral_rep_rows`), each row carrying its parameter
constraint, admissible domain, quadrature evaluator, and an independent
expected value computed from series/connection formulas in `numerics`.

All segment/ray integrands may close over a Jet argument, in which case the
result is a Jet (differentiation under the integral sign).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .exactalg import Jet
from . import numerics as N
from .numerics import (jabs, jexp, jpow, jsqrt, jvalue, rgamma, gamma,
                       NumericsError)


class QuadratureError(NumericsError):
    """Requested tolerance unreachable; carries the best estimate."""

    def __init__(self, message, value=None, estimate=None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Double-exponential engines
# ---------------------------------------------------------------------------

_U_MAX_TS = 6.5
_U_MAX_ES = 6.5


def _sigmoid(v: float) -> float:
    """1 / (1 + exp(-2v)) computed stably."""
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-2.0 * v))
    e = math.exp(2.0 * v)
    return e / (1.0 + e)


def _sech2(v: float) -> float:
    e = math.exp(-2.0 * abs(v))
    return 4.0 * e / (1.0 + e) ** 2


@functools.cache
def _ts_node(u: float):
    """tanh-sinh abscissa: distance fraction to the NEAR endpoint (so that
    nodes close to an endpoint keep full relative accuracy) and weight.

    Returns (near_frac, weight); the node is za + d*near_frac for u <= 0
    and zb - d*near_frac for u > 0.  None past the underflow cut.  Cached:
    the nodes u = k h, |u| <= 6.5, h = 0.5 / 2**level, form a finite set.
    """
    v = 0.5 * math.pi * math.sinh(u)
    if abs(v) > 350.0:
        return None
    near = _sigmoid(-abs(v))
    # dt/du = (zb-za) * d(frac)/du, d(frac)/du = (pi/4) cosh(u) sech^2(v)
    wgt = 0.25 * math.pi * math.cosh(u) * _sech2(v)
    return near, wgt


@functools.cache
def _es_node(u: float):
    """The scale-free part of the exp-sinh map at u: (exp(v), cosh(u)) with
    v = (pi/2) sinh(u), or None past the overflow cut.  Cached like
    `_ts_node`."""
    v = 0.5 * math.pi * math.sinh(u)
    if abs(v) > 690.0:
        return None
    return math.exp(v), math.cosh(u)


def _level_sum(node_fn, f, h: float, only_odd: bool):
    """Sum of w_k f(*args_k) over u = k h (k odd if requested), both signs."""
    total = 0.0j
    scale = 0.0
    for sign in (1.0, -1.0):
        k = 1 if only_odd else (0 if sign > 0 else 1)
        step = 2 if only_odd else 1
        misses = 0
        while True:
            u = sign * k * h
            if abs(u) > _U_MAX_TS + 1e-9:
                break
            got = node_fn(u)
            if got is None:
                break
            args, wgt = got
            try:
                val = f(*args)
            except (OverflowError, ZeroDivisionError, ValueError):
                val = None
            size = math.nan if val is None else jabs(val)
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


def _de_integrate(node_fn, f, tol: float, max_level: int = 9):
    """Generic doubling trapezoid over a double-exponential map."""
    h = 0.5
    # level 0
    total = _level_sum(node_fn, f, h, only_odd=False)
    value = total * h
    prev = None
    err = float("inf")
    for _level in range(1, max_level + 1):
        h *= 0.5
        total = total + _level_sum(node_fn, f, h, only_odd=True)
        new_value = total * h
        err = jabs(new_value - value)
        value = new_value
        scale = max(jabs(value), 1e-300)
        if err <= tol * scale and prev is not None:
            return value, err
        prev = err
    return value, err


def tanh_sinh(f: Callable, za, zb, tol: float = 1e-11, max_level: int = 9):
    """Integral of f over the straight segment [za, zb].

    Endpoint singularities of algebraic type are handled; f may return a
    Jet.  If f carries the attribute ``endpoint_aware`` it is called as
    f(t, side, off) with side 0/1 naming the nearer endpoint (za/zb) and
    off the exact complex offset from it (t = za + off or zb - off), so
    singular factors keep full relative accuracy arbitrarily close to the
    endpoints.  Returns (value, error_estimate).
    """
    za = complex(za)
    zb = complex(zb)
    d = zb - za
    aware = getattr(f, "endpoint_aware", False)

    def node_fn(u):
        got = _ts_node(u)
        if got is None:
            return None
        near, wgt = got
        off = d * near
        side = 1 if u > 0 else 0
        t = (zb - off) if side else (za + off)
        if aware:
            return (t, side, off), wgt * d
        return (t,), wgt * d

    return _de_integrate(node_fn, f, tol, max_level)


def exp_sinh(g: Callable, tol: float = 1e-11, max_level: int = 9,
             scale: float = 1.0):
    """Integral of g over (0, inf); g may be singular at 0 and must decay.

    `scale` rescales the abscissas (s -> scale * s) to centre the map on
    the integrand's natural length.  Returns (value, error_estimate).
    """

    def node_fn(u):
        got = _es_node(u)
        if got is None:
            return None
        ev, ch = got
        s = scale * ev
        wgt = s * 0.5 * math.pi * ch
        return (s,), wgt

    return _de_integrate(node_fn, g, tol, max_level)


class EndpointAware:
    """Wraps fn(t, side, off) so tanh_sinh feeds it exact endpoint offsets."""
    endpoint_aware = True

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, t, side=None, off=None):
        return self.fn(t, side, off)


def segment_power_integrand(za, zb, factors, extra: Optional[Callable] = None):
    """Integrand prod (c_j (t - p_j))^{g_j} * extra(t) on the segment
    [za, zb], with factors whose p_j coincides with an endpoint evaluated
    from the exact offset (full relative accuracy at the singularity)."""
    za = complex(za)
    zb = complex(zb)

    def fn(t, side, off):
        end = zb if side else za
        out = 1.0 + 0.0j
        for c, p, g in factors:
            if complex(p) == end:
                lv = c * off if side == 0 else -(c * off)
            else:
                lv = c * (t - p)
            out = out * jpow(lv, g)
        if extra is not None:
            out = out * extra(t)
        return out

    return EndpointAware(fn)


# ---------------------------------------------------------------------------
# Gauss-Legendre panels (for circles / smooth pieces)
# ---------------------------------------------------------------------------

_GL_CACHE = {}


def _gl(n: int = 16):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1]: Newton's
    method on P_n, evaluated by the three-term recurrence, from the
    Chebyshev-like guesses cos(pi (i + 3/4) / (n + 1/2)); the negative
    half mirrors the positive one, so the rule is exactly symmetric."""
    if n not in _GL_CACHE:
        half = []
        for i in range(n // 2, n):
            x = -math.cos(math.pi * (i + 0.75) / (n + 0.5))
            for _ in range(100):
                p0, p1 = 1.0, x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = n * (x * p1 - p0) / (x * x - 1.0)
                dx = p1 / dp
                x -= dx
                if abs(dx) <= 1e-16:
                    break
            half.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
        nodes = [(-x, w) for x, w in reversed(half[n % 2:])] + half
        _GL_CACHE[n] = (tuple(x for x, _ in nodes), tuple(w for _, w in nodes))
    return _GL_CACHE[n]


def _gl_rule(a: float, b: float, panels: int):
    """(x, weight) of the composite 16-point Gauss-Legendre rule on the
    real interval [a, b] split into equal panels."""
    x, w = _gl(16)
    half = 0.5 * (b - a) / panels
    for p in range(panels):
        mid = a + (2 * p + 1) * half
        for xi, wi in zip(x, w):
            yield mid + half * xi, wi * half


def _gl_doubling(f: Callable, a: float, b: float, panels: int,
                 tol: float, max_doublings: int = 6):
    def rule(m):
        return sum(wgt * f(x) for x, wgt in _gl_rule(a, b, m))

    value = rule(panels)
    err = float("inf")
    for _ in range(max_doublings):
        panels *= 2
        new = rule(panels)
        err = jabs(new - value)
        value = new
        if err <= tol * max(jabs(value), 1e-300):
            return value, err
    return value, err


# ---------------------------------------------------------------------------
# Loop contours around the negative axis
# ---------------------------------------------------------------------------

def _circle0(fn: Callable, gam: complex, rho: float, tol: float):
    """Integral over the full circle |t| = rho, counterclockwise from -pi
    to pi, of t^gam fn(t) with the phase of t^gam tracked continuously."""

    def g(phi):
        t = rho * cmath.exp(1j * phi)
        tpow = cmath.exp(gam * (math.log(rho) + 1j * phi))
        return 1j * t * tpow * fn(t)

    return _gl_doubling(g, -math.pi, math.pi, 8, tol)


def keyhole_0(fn: Callable, gam: complex, rho: float, tol: float = 1e-11):
    """Contour departing 0 along the lower lip of the negative axis,
    encircling 0 counterclockwise at radius rho, returning on the upper
    lip: integral of t^gam fn(t).  fn must vanish fast enough at 0-."""
    lips, e1 = tanh_sinh(lambda s: s ** gam * fn(-s), 0.0, rho, tol)
    lips = 2j * cmath.sin(math.pi * gam) * lips
    circ, e2 = _circle0(fn, gam, rho, tol)
    return lips + circ, abs(e1) * 2 + abs(e2)


def double_ray_0(fn: Callable, gam: complex, rho: float, R: float,
                 tol: float = 1e-11):
    """Contour from -R along the lower lip of the negative axis, around 0
    counterclockwise at radius rho, back to -R on the upper lip."""
    lips, e1 = tanh_sinh(lambda s: s ** gam * fn(-s), rho, R, tol)
    lips = -2j * cmath.sin(math.pi * gam) * lips
    circ, e2 = _circle0(fn, gam, rho, tol)
    return lips + circ, abs(e1) * 2 + abs(e2)


# ---------------------------------------------------------------------------
# Phase-tracked polyline loop (several branch points encircled at once)
# ---------------------------------------------------------------------------

def path_integral(pieces: Sequence, factors: Sequence, exp_fn: Optional[Callable],
                  tol: float = 1e-10, panels_per_unit: float = 1.0):
    """Integrate prod_j (c_j (t - p_j))^{gamma_j} * exp(exp_fn(t)) along a
    chain of pieces, with each factor's logarithm continued along the path
    (never re-evaluated on the principal branch mid-contour).

    pieces: ("seg", z0, z1) or ("arc", center, radius, phi0, phi1).
    factors: sequence of (c_j, p_j, gamma_j).
    """

    def nodes_for(mult):
        out = []
        for piece in pieces:
            if piece[0] == "seg":
                _, z0, z1 = piece
                z0 = complex(z0)
                d = complex(z1) - z0
                m = max(2, int(math.ceil(abs(d) * panels_per_unit * mult)))
                out += [(z0 + d * tau, wgt * d)
                        for tau, wgt in _gl_rule(0.0, 1.0, m)]
            elif piece[0] == "arc":
                _, cen, rad, ph0, ph1 = piece
                m = max(4, int(math.ceil(abs(ph1 - ph0) * rad
                                         * panels_per_unit * mult)) + 4)
                for phi, wgt in _gl_rule(ph0, ph1, m):
                    e = rad * cmath.exp(1j * phi)
                    out.append((cen + e, wgt * 1j * e))
            else:
                raise ValueError(piece[0])
        return out

    def run(mult):
        nodes = nodes_for(mult)
        logs = None
        prev_vals = None
        total = 0.0j
        for t, wgt in nodes:
            vals = [c * (t - p) for (c, p, _g) in factors]
            if logs is None:
                logs = [cmath.log(v) for v in vals]
            else:
                logs = [lg + cmath.log(v / pv)
                        for lg, v, pv in zip(logs, vals, prev_vals)]
            prev_vals = vals
            expo = sum(g * lg for (_c, _p, g), lg in zip(factors, logs))
            if exp_fn is not None:
                expo = expo + exp_fn(t)
            if expo.real < -745.0:
                continue
            total += wgt * cmath.exp(expo)
        return total

    v1 = run(1)
    v2 = run(2)
    err = abs(v2 - v1)
    return v2, err


# ---------------------------------------------------------------------------
# Solution evaluators used by `numerics` at moderate |w| (jet-capable)
# ---------------------------------------------------------------------------

def _checked(value, err, tol: float):
    """The quadrature value, unless its error estimate misses the requested
    tolerance by a wide margin: then QuadratureError carries both."""
    if err > max(10 * tol * max(jabs(value), 1.0), 1e-6):
        raise QuadratureError("quadrature tolerance unreachable",
                              value=value, estimate=err)
    return value


def tricomi_solution(th, al, w, tol: float = 1e-11):
    """w^{(-1-th-al)/2} tilde-F_{th,al}(-1/w) by Laplace-type quadrature."""
    th = complex(th)
    al = complex(al)
    # the integrand exponent at 0 must be integrable; use the sign of alpha
    # giving the larger margin (the target function is even in alpha)
    margins = [(1 + th - s * al).real for s in (1, -1)]
    sgn = 1 if margins[0] >= margins[1] else -1
    if (1 + th - sgn * al).real <= 0.02:
        raise N.DomainError("no integrable variant of the Laplace integral")
    a2 = sgn * al
    p = (-1 + th - a2) / 2
    r = (-1 - th - a2) / 2

    def g(s):
        if s > 700.0:
            return 0.0j
        return (s ** p) * math.exp(-s) * jpow(w + s, r)

    out = _checked(*exp_sinh(g, tol), tol) * rgamma((1 + th - a2) / 2)
    if sgn < 0:
        out = out * jpow(w, -al)
    return out


def conf_minus_inf_solution(th, al, w, tol: float = 1e-11):
    """e^w (-w)^{(-1+th-al)/2} tilde-F_{-th,al}(1/w) by quadrature."""
    th = complex(th)
    al = complex(al)
    margins = [(1 - th - s * al).real for s in (1, -1)]
    sgn = 1 if margins[0] >= margins[1] else -1
    if (1 - th - sgn * al).real <= 0.02:
        raise N.DomainError("no integrable variant of the Laplace integral")
    a2 = sgn * al
    p = (-1 + th - a2) / 2
    r = (-1 - th - a2) / 2

    def g(s):
        if s > 700.0:
            return 0.0j
        return jpow(s - w, p) * math.exp(-s) * jpow(s, r)

    out = jexp(w) * _checked(*exp_sinh(g, tol), tol) \
        * rgamma((1 - th - a2) / 2)
    if sgn < 0:
        out = out * jpow(-w, -al)
    return out


def hermite_S_solution(la, w, tol: float = 1e-11):
    """S_lambda(w) from the Laplace integral int_0^inf e^{-t^2-2tw}
    t^{lambda-1/2} dt (valid Re lambda > -1/2; else one raising step)."""
    la = complex(la)
    if la.real <= -0.49:
        # S_la = -(S'_{la+1} - 2 w S_{la+1}) / 2, via a one-order-higher jet
        w0 = jvalue(w)
        n = w.order if N.is_jet(w) else 0
        wj = Jet.variable(w0, n + 1)
        f = hermite_S_solution(la + 1, wj, tol)
        res = (-0.5) * (f.deriv() - 2 * wj * f)
        if n == 0:
            return res.value()
        return Jet(w0, res.coeffs[: n + 1])
    w0 = jvalue(w)

    def g(s):
        ex = -s * s - 2 * s * w0.real
        if ex < -700.0:
            return 0.0j
        if N.is_jet(w) or w0.imag:
            return (s ** (la - 0.5)) * jexp(-s * s - 2 * s * w)
        return (s ** (la - 0.5)) * math.exp(ex)

    return (2 ** (la + 0.5)) * rgamma(la + 0.5) \
        * _checked(*exp_sinh(g, tol), tol)


def bessel_tilde_solution(al, w, tol: float = 1e-11):
    """tilde-F_alpha(w) from int_{-inf}^0 e^t e^{w/t} (-t)^{-al-1} dt
    = sqrt(pi) tilde-F_alpha(w), Re w > 0."""
    al = complex(al)
    w0 = jvalue(w)

    def g(s):
        if s > 700.0 or w0.real / s > 700.0:
            return 0.0j
        return math.exp(-s) * jexp(-w / s) * s ** (-al - 1)

    val, err = exp_sinh(g, tol, scale=max(1.0, math.sqrt(abs(w0))))
    return _checked(val, err, tol) / SQRT_PI


# ---------------------------------------------------------------------------
# The representation catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepRow:
    """One printed integral representation.

    evaluate(params, w, tol) -> (value, error_estimate) by quadrature;
    expected(params, w)      -> independent value via series/connection.
    """
    id: str
    family: str
    location: str
    constraint_desc: str
    constraint: Callable
    domain_desc: str
    domain: Callable
    evaluate: Callable
    expected: Callable
    samples: tuple


def _row_adder(rows: list, prefix: str, family: str, param_samples):
    """row(i, desc, cdesc, cfun, ddesc, dfun, ev, exp, ws) appends the
    RepRow "<prefix>:int:<i>", sampled at every parameter sample times
    every w in ws."""

    def row(i, desc, cdesc, cfun, ddesc, dfun, ev, exp, ws):
        samples = tuple((ps, w) for ps in param_samples for w in ws)
        rows.append(RepRow(f"{prefix}:int:{i:02d}", family, desc, cdesc,
                           cfun, ddesc, dfun, ev, exp, samples))

    return row


def _off_cut(w: complex, *cuts) -> bool:
    """cuts are ("le", x) for (-inf,x] or ("ge", x) for [x,inf)."""
    for kind, x in cuts:
        if w.imag == 0:
            if kind == "le" and w.real <= x:
                return False
            if kind == "ge" and w.real >= x:
                return False
    return True


# ---- 2F1 rows -------------------------------------------------------------

def _2f1_exponents(al, be, mu):
    p = (-1 - al + be + mu) / 2
    q = (-1 + al - be + mu) / 2
    r = (-1 - al - be - mu) / 2
    p01 = (-1 - al + be - mu) / 2
    return p, q, r, p01


_2F1_PARAM_SAMPLES = (
    (2 / 7, 3 / 11, 1 / 13),
    (-1 / 7, 2 / 11, 3 / 13),
    (3 / 7, -2 / 11, 2 / 13),
)


def _build_2f1_rows():
    rows = []
    row = _row_adder(rows, "2f1", "2f1", _2F1_PARAM_SAMPLES)

    def ev1(params, w, tol):
        al, be, mu = params
        p, q, r, _ = _2f1_exponents(al, be, mu)
        return exp_sinh(lambda s: (1 + s) ** p * s ** q
                        * jpow(1 + s - w, r), tol)

    row(1, "[1,inf) Euler integral -> FI(al,be,mu)(w)",
        "Re(1+al) > |Re(be-mu)|",
        lambda ps: (1 + ps[0]) > abs(ps[1] - ps[2]),
        "w off [1,inf)", lambda w: _off_cut(w, ("ge", 1.0)),
        ev1,
        lambda ps, w: N.FI_2f1(ps[0], ps[1], ps[2], w),
        (0.3 + 0.4j, -0.5 + 0.2j, 0.4))

    def ev2(params, w, tol):
        al, be, mu = params
        p, q, r, _ = _2f1_exponents(al, be, mu)
        f = segment_power_integrand(0.0, w, ((1, 0.0, p), (-1, 1.0, q),
                                             (-1, w, r)))
        return tanh_sinh(f, 0.0, w, tol)

    row(2, "[0,w] integral -> w^-al FI(-al,be,-mu)(w)",
        "Re(1-al) > |Re(be-mu)|",
        lambda ps: (1 - ps[0]) > abs(ps[1] - ps[2]),
        "w off (-inf,0] and [1,inf)",
        lambda w: _off_cut(w, ("le", 0.0), ("ge", 1.0)),
        ev2,
        lambda ps, w: jpow(w, -ps[0]) * N.FI_2f1(-ps[0], ps[1], -ps[2], w),
        (0.3 + 0.4j, 0.6 + 0.1j, 0.5))

    def ev3(params, w, tol):
        al, be, mu = params
        p, q, r, _ = _2f1_exponents(al, be, mu)
        f = segment_power_integrand(w, 0.0, ((-1, 0.0, p), (-1, 1.0, q),
                                             (1, w, r)))
        return tanh_sinh(f, w, 0.0, tol)

    row(3, "[w,0] integral -> (-w)^-al FI(-al,be,-mu)(w)",
        "Re(1-al) > |Re(be-mu)|",
        lambda ps: (1 - ps[0]) > abs(ps[1] - ps[2]),
        "w off [0,inf)", lambda w: _off_cut(w, ("ge", 0.0)),
        ev3,
        lambda ps, w: jpow(-w, -ps[0]) * N.FI_2f1(-ps[0], ps[1], -ps[2], w),
        (-0.5, -0.3 + 0.5j, -1.2 + 0.4j))

    def ev4(params, w, tol):
        al, be, mu = params
        p, q, r, _ = _2f1_exponents(al, be, mu)
        return exp_sinh(lambda s: s ** p * (1 + s) ** q
                        * jpow(w + s, r), tol)

    row(4, "(-inf,0] integral -> FI(be,al,mu)(1-w)",
        "Re(1+be) > |Re(al-mu)|",
        lambda ps: (1 + ps[1]) > abs(ps[0] - ps[2]),
        "w off (-inf,0]", lambda w: _off_cut(w, ("le", 0.0)),
        ev4,
        lambda ps, w: N.FI_2f1(ps[1], ps[0], ps[2], 1 - w),
        (0.4 + 0.3j, 2 + 1j, 0.7))

    def ev5(params, w, tol):
        al, be, mu = params
        p, q, r, _ = _2f1_exponents(al, be, mu)
        f = segment_power_integrand(w, 1.0, ((1, 0.0, p), (-1, 1.0, q),
                                             (1, w, r)))
        return tanh_sinh(f, w, 1.0, tol)

    row(5, "[w,1] integral -> (1-w)^-be FI(-be,al,-mu)(1-w)",
        "Re(1-be) > |Re(al+mu)|",
        lambda ps: (1 - ps[1]) > abs(ps[0] + ps[2]),
        "w off (-inf,0] and [1,inf)",
        lambda w: _off_cut(w, ("le", 0.0), ("ge", 1.0)),
        ev5,
        lambda ps, w: jpow(1 - w, -ps[1])
        * N.FI_2f1(-ps[1], ps[0], -ps[2], 1 - w),
        (0.3 + 0.2j, 0.5, 0.7 + 0.1j))

    def ev6(params, w, tol):
        al, be, mu = params
        p, q, r, _ = _2f1_exponents(al, be, mu)
        f = segment_power_integrand(1.0, w, ((1, 0.0, p), (1, 1.0, q),
                                             (-1, w, r)))
        return tanh_sinh(f, 1.0, w, tol)

    row(6, "[1,w] integral -> (w-1)^-be FI(-be,al,-mu)(1-w)",
        "Re(1-be) > |Re(al+mu)|",
        lambda ps: (1 - ps[1]) > abs(ps[0] + ps[2]),
        "w off (-inf,1]", lambda w: _off_cut(w, ("le", 1.0)),
        ev6,
        lambda ps, w: jpow(w - 1, -ps[1])
        * N.FI_2f1(-ps[1], ps[0], -ps[2], 1 - w),
        (1.5 + 0.5j, 2 + 1j, 1.2 + 0.3j))

    def ev7(params, w, tol):
        al, be, mu = params
        p, q, r, _ = _2f1_exponents(al, be, mu)
        return exp_sinh(lambda s: jpow(w + s, p) * jpow(w + s - 1, q)
                        * s ** r, tol)

    row(7, "[w,inf) integral -> w^((-1-al-be+mu)/2) FI(-mu,be,-al)(1/w)",
        "Re(1-mu) > |Re(al+be)|",
        lambda ps: (1 - ps[2]) > abs(ps[0] + ps[1]),
        "w off (-inf,1]", lambda w: _off_cut(w, ("le", 1.0)),
        ev7,
        lambda ps, w: jpow(w, (-1 - ps[0] - ps[1] + ps[2]) / 2)
        * N.FI_2f1(-ps[2], ps[1], -ps[0], 1 / w),
        (1.5 + 0.5j, 3 + 1j, 2.5))

    def ev8(params, w, tol):
        al, be, mu = params
        p, q, r, _ = _2f1_exponents(al, be, mu)
        return exp_sinh(lambda s: jpow(s - w, p) * jpow(1 - w + s, q)
                        * s ** r, tol)

    row(8, "(-inf,w] integral -> (-w)^((-1-al-be+mu)/2) FI(-mu,be,-al)(1/w)",
        "Re(1-mu) > |Re(al+be)|",
        lambda ps: (1 - ps[2]) > abs(ps[0] + ps[1]),
        "w off [0,inf)", lambda w: _off_cut(w, ("ge", 0.0)),
        ev8,
        lambda ps, w: jpow(-w, (-1 - ps[0] - ps[1] + ps[2]) / 2)
        * N.FI_2f1(-ps[2], ps[1], -ps[0], 1 / w),
        (-0.5, -1 + 0.5j, -0.3 + 0.8j))

    def ev9(params, w, tol):
        al, be, mu = params
        p, q, r, p01 = _2f1_exponents(al, be, mu)
        f = segment_power_integrand(0.0, 1.0, ((1, 0.0, p), (-1, 1.0, q),
                                               (1, w, r)))
        return tanh_sinh(f, 0.0, 1.0, tol)

    row(9, "[0,1] integral -> (-w)^((-1-al-be-mu)/2) FI(mu,be,al)(1/w)",
        "Re(1+mu) > |Re(al-be)|",
        lambda ps: (1 + ps[2]) > abs(ps[0] - ps[1]),
        "w off [0,inf)", lambda w: _off_cut(w, ("ge", 0.0)),
        ev9,
        lambda ps, w: jpow(-w, (-1 - ps[0] - ps[1] - ps[2]) / 2)
        * N.FI_2f1(ps[2], ps[1], ps[0], 1 / w),
        (-0.5, -1 + 0.5j, -0.3 + 0.8j))

    def ev10(params, w, tol):
        al, be, mu = params
        p, q, r, p01 = _2f1_exponents(al, be, mu)
        f = segment_power_integrand(0.0, 1.0, ((1, 0.0, p), (-1, 1.0, q),
                                               (-1, w, r)))
        return tanh_sinh(f, 0.0, 1.0, tol)

    row(10, "[0,1] integral -> w^((-1-al-be-mu)/2) FI(mu,be,al)(1/w)",
        "Re(1+mu) > |Re(al-be)|",
        lambda ps: (1 + ps[2]) > abs(ps[0] - ps[1]),
        "w off (-inf,1]", lambda w: _off_cut(w, ("le", 1.0)),
        ev10,
        lambda ps, w: jpow(w, (-1 - ps[0] - ps[1] - ps[2]) / 2)
        * N.FI_2f1(ps[2], ps[1], ps[0], 1 / w),
        (1.5 + 0.5j, 3 + 1j, 2.5))

    return tuple(rows)


# ---- Gegenbauer rows ------------------------------------------------------

_GEG_PARAM_SAMPLES = (
    (2 / 7, 1 / 11),
    (3 / 13, -1 / 7),
    (5 / 11, 2 / 13),
)


def _build_geg_rows():
    rows = []
    row = _row_adder(rows, "geg", "gegenbauer", _GEG_PARAM_SAMPLES)

    # type a) integrand: (t^2-1)^{-1/2-la} (w-t)^{-1/2-al+la}
    def a_exps(al, la):
        return -0.5 - la, -0.5 - al + la

    def ev_a1(params, w, tol):
        al, la = params
        e1, e2 = a_exps(al, la)
        # t = -1 - s: t^2-1 = s(s+2)
        return exp_sinh(lambda s: s ** e1 * (s + 2) ** e1
                        * jpow(w + 1 + s, e2), tol)

    row(1, "type a, (-inf,-1] -> SI(al,la)(w)",
        "1/2 > Re la > -1/2 - Re al",
        lambda ps: 0.5 > ps[1] > -0.5 - ps[0],
        "w off (-inf,-1]", lambda w: _off_cut(w, ("le", -1.0)),
        ev_a1,
        lambda ps, w: N.SI_geg(ps[0], ps[1], w),
        (0.5 + 0.5j, 2 + 1j, -0.3 + 0.6j))

    def ev_a2(params, w, tol):
        al, la = params
        e1, e2 = a_exps(al, la)
        f = segment_power_integrand(w, 1.0, ((-1, 1.0, e1), (1, -1.0, e1),
                                             (1, w, e2)))
        return tanh_sinh(f, w, 1.0, tol)

    row(2, "type a, [w,1] with (t-w)^(-1/2-al+la) -> (1-w^2)^-al SI(-al,la)(w)",
        "1/2 > Re la > -1/2 + Re al",
        lambda ps: 0.5 > ps[1] > -0.5 + ps[0],
        "w off (-inf,-1] and [1,inf)",
        lambda w: _off_cut(w, ("le", -1.0), ("ge", 1.0)) and w.imag != 0,
        ev_a2,
        lambda ps, w: jpow(1 - w * w, -ps[0]) * N.SI_geg(-ps[0], ps[1], w),
        (0.3 + 0.4j, -0.5 + 0.3j, 0.6 - 0.2j))

    def ev_a3(params, w, tol):
        al, la = params
        e1, e2 = a_exps(al, la)
        f = segment_power_integrand(-1.0, 1.0, ((-1, 1.0, e1), (1, -1.0, e1),
                                                (-1, w, e2)))
        return tanh_sinh(f, -1.0, 1.0, tol)

    row(3, "type a, [-1,1] -> (w^2-1)^((-1-2al+2la)/4) S0(-la,al)(w/sqrt(w^2-1))",
        "1/2 > Re la", lambda ps: 0.5 > ps[1],
        "w off (-inf,1]", lambda w: _off_cut(w, ("le", 1.0)),
        ev_a3,
        lambda ps, w: jpow(w * w - 1, (-1 - 2 * ps[0] + 2 * ps[1]) / 4)
        * N.S0_geg(-ps[1], ps[0], w / jsqrt(w * w - 1)),
        (1.5 + 0.8j, 2 + 0.5j, 2.5))

    def ev_a4(params, w, tol):
        al, la = params
        e1, e2 = a_exps(al, la)
        return exp_sinh(lambda s: jpow(w + s - 1, e1) * jpow(w + s + 1, e1)
                        * s ** e2, tol)

    row(4, "type a, [w,inf) -> (w^2-1)^((-1-2al-2la)/4) SII(la,al)(w/sqrt(w^2-1))",
        "Re la + 1/2 > |Re al|", lambda ps: ps[1] + 0.5 > abs(ps[0]),
        "w off (-inf,1]", lambda w: _off_cut(w, ("le", 1.0)),
        ev_a4,
        lambda ps, w: jpow(w * w - 1, (-1 - 2 * ps[0] - 2 * ps[1]) / 4)
        * N.SII_geg(ps[1], ps[0], w / jsqrt(w * w - 1)),
        (1.5 + 0.8j, 2 + 0.5j, 2.5))

    # type b) integrand: (t^2+2tw+1)^{-al-1/2} (+-t)^{-1/2+al+-la}
    def ev_b1(params, w, tol):
        al, la = params
        eq = -al - 0.5
        et = -0.5 + al + la
        return exp_sinh(lambda s: jpow(s * s + 2 * s * w + 1, eq)
                        * s ** et, tol)

    row(5, "type b, [0,inf) -> SII(al,la)(w)",
        "Re al + 1/2 > |Re la|", lambda ps: ps[0] + 0.5 > abs(ps[1]),
        "w off (-inf,-1]", lambda w: _off_cut(w, ("le", -1.0)),
        ev_b1,
        lambda ps, w: N.SII_geg(ps[0], ps[1], w),
        (0.5 + 0.5j, 2 + 1j, 0.8))

    def ev_b2(params, w, tol):
        al, la = params
        eq = -al - 0.5
        et = -0.5 + al + la
        s_ = jsqrt(1 - w * w)
        t1 = -1j * s_ - w
        t2 = 1j * s_ - w
        # quadratic factored through its roots t1, t2 (the endpoints)
        f = segment_power_integrand(t1, t2, ((1, t1, eq), (1, t2, eq),
                                             (-1, 0.0, et)))
        return tanh_sinh(f, t1, t2, tol)

    def _b2_domain(w):
        if w.imag == 0 or not _off_cut(w, ("le", -1.0), ("ge", 1.0)):
            return False
        # the straight segment between the roots must not cross the
        # branch cut of (-t)^(...), i.e. the positive real axis
        s_ = cmath.sqrt(1 - w * w)
        t1 = -1j * s_ - w
        t2 = 1j * s_ - w
        d = t2 - t1
        if d.imag != 0:
            tau = -t1.imag / d.imag
            if 0.0 < tau < 1.0 and (t1 + tau * d).real > 0.0:
                return False
        return True

    row(6, "type b, between the roots -> i (1-w^2)^-al S0(-al,-la)(w)",
        "1/2 > Re al", lambda ps: 0.5 > ps[0],
        "w off (-inf,-1] and [1,inf), segment clear of [0,inf)",
        _b2_domain,
        ev_b2,
        lambda ps, w: 1j * jpow(1 - w * w, -ps[0])
        * N.S0_geg(-ps[0], -ps[1], w),
        (0.3 + 0.2j, 0.2 - 0.3j, 0.5 + 0.6j))

    def ev_b3(params, w, tol):
        al, la = params
        eq = -al - 0.5
        et = -0.5 + al - la
        rt = jsqrt(w * w - 1)
        t1 = rt - w
        t2 = -rt - w
        f = segment_power_integrand(t1, 0.0, ((1, t1, eq), (1, t2, eq),
                                              (-1, 0.0, et)))
        return tanh_sinh(f, t1, 0.0, tol)

    row(7, "type b, [root,0] -> (w^2-1)^((-1-2al+2la)/4) SI(-la,al)(w/sqrt(w^2-1))",
        "-Re la + 1/2 > -Re al > -1/2",
        lambda ps: (-ps[1] + 0.5 > -ps[0]) and (-ps[0] > -0.5),
        "w off (-inf,1]", lambda w: _off_cut(w, ("le", 1.0)),
        ev_b3,
        lambda ps, w: jpow(w * w - 1, (-1 - 2 * ps[0] + 2 * ps[1]) / 4)
        * N.SI_geg(-ps[1], ps[0], w / jsqrt(w * w - 1)),
        (1.5 + 0.8j, 2 + 0.5j, 2.5 + 1j))

    def ev_b4(params, w, tol):
        al, la = params
        eq = -al - 0.5
        et = -0.5 + al - la
        rt = jsqrt(w * w - 1)
        t2 = -rt - w
        # t = t2 - s: quadratic = s (s + 2 rt); -t = w + rt + s
        return exp_sinh(lambda s: s ** eq * jpow(s + 2 * rt, eq)
                        * jpow(w + rt + s, et), tol)

    row(8, "type b, (-inf,-root] -> (w^2-1)^(-1/4-al/2-la/2) SI(la,al)(w/sqrt(w^2-1))",
        "Re la + 1/2 > -Re al > -1/2",
        lambda ps: (ps[1] + 0.5 > -ps[0]) and (-ps[0] > -0.5),
        "w off (-inf,1]", lambda w: _off_cut(w, ("le", 1.0)),
        ev_b4,
        lambda ps, w: jpow(w * w - 1, -0.25 - ps[0] / 2 - ps[1] / 2)
        * N.SI_geg(ps[1], ps[0], w / jsqrt(w * w - 1)),
        (1.5 + 0.8j, 2 + 0.5j, 2.5 + 1j))

    return tuple(rows)


# ---- Confluent rows -------------------------------------------------------

_CONF_PARAM_SAMPLES = (
    (1 / 7, 2 / 11),
    (-2 / 13, 3 / 7),
    (3 / 11, -1 / 7),
)


def _conf_tricomi_expected(th, al, w):
    """w^{(-1-th-al)/2} tilde-FI_{th,al}(-1/w) via the connection formula
    (series route; independent of the Laplace quadrature)."""
    th = complex(th)
    al = complex(al)
    lhs = math.pi * N.bold_F_1f1(th, al, w) \
        / (N.sinpi(-al) * gamma((1 + th - al) / 2)) \
        + math.pi * jpow(w, -al) * N.bold_F_1f1(th, -al, w) \
        / (N.sinpi(al) * gamma((1 + th + al) / 2))
    return lhs  # equals w^{(-1-th-al)/2} tilde-F_{th,al}(-1/w)


def _conf_minus_inf_expected(th, al, w):
    """e^w (-w)^{(-1+th-al)/2} tilde-F_{-th,al}(1/w) via the connection."""
    th = complex(th)
    al = complex(al)
    return math.pi * N.bold_F_1f1(th, al, w) \
        / (N.sinpi(-al) * gamma((1 - th - al) / 2)) \
        + math.pi * jpow(-w, -al) * N.bold_F_1f1(th, -al, w) \
        / (N.sinpi(al) * gamma((1 - th + al) / 2))


def _build_conf_rows():
    rows = []
    row = _row_adder(rows, "1f1", "1f1", _CONF_PARAM_SAMPLES)

    def exps_a(th, al):
        return (-1 + th - al) / 2, (-1 - th - al) / 2

    def ev1(params, w, tol):
        th, al = params
        p, r = exps_a(th, al)
        R = 40.0 + abs(w)
        X = max(1.0, w.real + 1.0)
        ylo = max(1.0, -w.imag + 1.0)
        yhi = max(1.0, w.imag + 1.0)
        pieces = (("seg", complex(-R, -ylo), complex(X, -ylo)),
                  ("seg", complex(X, -ylo), complex(X, yhi)),
                  ("seg", complex(X, yhi), complex(-R, yhi)))
        val, err = path_integral(pieces, ((1.0, 0.0, p), (1.0, w, r)),
                                 lambda t: t, tol)
        return val / (2j * math.pi), err / (2 * math.pi)

    row(1, "loop around 0 and w of t^p e^t (t-w)^r / 2 pi i -> bold-F(th,al)(w)",
        "none", lambda ps: True,
        "Im w != 0", lambda w: w.imag != 0,
        ev1,
        lambda ps, w: N.bold_F_1f1(ps[0], ps[1], w),
        (0.5 + 0.8j, 1 + 1j, -0.6 + 0.7j))

    def ev2a(params, w, tol):
        th, al = params
        p, r = exps_a(th, al)
        f = segment_power_integrand(0.0, w, ((1, 0.0, p), (-1, w, r)),
                                    extra=lambda t: cmath.exp(t))
        return tanh_sinh(f, 0.0, w, tol)

    row(2, "[0,w] -> w^-al FI(th,-al)(w)",
        "Re(1-al) > |Re th|", lambda ps: 1 - ps[1] > abs(ps[0]),
        "w off (-inf,0]", lambda w: _off_cut(w, ("le", 0.0)),
        ev2a,
        lambda ps, w: jpow(w, -ps[1]) * N.FI_1f1(ps[0], -ps[1], w),
        (0.5, 0.4 + 0.6j, 1 + 0.3j))

    def ev2b(params, w, tol):
        th, al = params
        p, r = exps_a(th, al)
        f = segment_power_integrand(w, 0.0, ((-1, 0.0, p), (1, w, r)),
                                    extra=lambda t: cmath.exp(t))
        return tanh_sinh(f, w, 0.0, tol)

    row(3, "[w,0] -> (-w)^-al FI(th,-al)(w)",
        "Re(1-al) > |Re th|", lambda ps: 1 - ps[1] > abs(ps[0]),
        "w off [0,inf)", lambda w: _off_cut(w, ("ge", 0.0)),
        ev2b,
        lambda ps, w: jpow(-w, -ps[1]) * N.FI_1f1(ps[0], -ps[1], w),
        (-0.5, -0.4 + 0.6j, -1 + 0.5j))

    def ev3(params, w, tol):
        th, al = params
        p, r = exps_a(th, al)
        return exp_sinh(lambda s: s ** p * math.exp(-s)
                        * jpow(w + s, r), tol)

    row(4, "(-inf,0] Laplace -> w^((-1-th-al)/2) tilde-FI(th,al)(-1/w)",
        "Re(1+th-al) > 0", lambda ps: 1 + ps[0] - ps[1] > 0,
        "w off (-inf,0]", lambda w: _off_cut(w, ("le", 0.0)),
        ev3,
        lambda ps, w: gamma((1 + ps[0] - ps[1]) / 2)
        * _conf_tricomi_expected(ps[0], ps[1], w),
        (0.8, 1.5 + 1j, 0.5 + 0.5j))

    def ev4(params, w, tol):
        th, al = params
        p, r = exps_a(th, al)
        val, err = exp_sinh(lambda s: jpow(s - w, p) * math.exp(-s)
                            * s ** r, tol)
        return jexp(w) * val, abs(cmath.exp(complex(w).real)) * err

    row(5, "(-inf,w] Laplace -> e^w (-w)^((-1+th-al)/2) tilde-FI(-th,al)(1/w)",
        "Re(1-th-al) > 0", lambda ps: 1 - ps[0] - ps[1] > 0,
        "w off [0,inf)", lambda w: _off_cut(w, ("ge", 0.0)),
        ev4,
        lambda ps, w: gamma((1 - ps[0] - ps[1]) / 2)
        * _conf_minus_inf_expected(ps[0], ps[1], w),
        (-0.8, -1 + 1j, -0.5 + 0.5j))

    def exps_b(th, al):
        return -1 - al, (-1 - th + al) / 2

    def ev5(params, w, tol):
        th, al = params
        et, e1 = exps_b(th, al)
        return exp_sinh(lambda s: jexp(w / (1 + s)) * (1 + s) ** et
                        * s ** e1, tol)

    row(6, "[1,inf) -> FI(th,al)(w)",
        "Re(1+al) > |Re th|", lambda ps: 1 + ps[1] > abs(ps[0]),
        "any w", lambda w: True,
        ev5,
        lambda ps, w: N.FI_1f1(ps[0], ps[1], w),
        (0.7, -1 + 1j, 2 + 0.5j))

    def ev6(params, w, tol):
        th, al = params
        et, e1 = exps_b(th, al)
        rho = 0.7
        val, err = keyhole_0(lambda t: cmath.exp(w / t)
                             * (1 - t) ** complex(e1)
                             if isinstance(t, complex)
                             else cmath.exp(w / t) * (1 - t) ** e1,
                             et, rho, tol)
        return val / (2j * math.pi), err / (2 * math.pi)

    row(7, "keyhole (0-0)^+ -> w^-al bold-F(th,-al)(w)",
        "none", lambda ps: True,
        "Re w > 0, |w| < 0.5", lambda w: w.real > 0 and abs(w) < 0.5,
        ev6,
        lambda ps, w: jpow(w, -ps[1]) * N.bold_F_1f1(ps[0], -ps[1], w),
        (0.3, 0.25 + 0.2j, 0.4 + 0.1j))

    def ev7(params, w, tol):
        th, al = params
        et, e1 = exps_b(th, al)

        def g(s):
            if w.real / s > 700.0:
                return 0.0j
            return cmath.exp(-w / s) * s ** et * (1 + s) ** e1

        return exp_sinh(g, tol)

    row(8, "(-inf,0] -> w^((-1-th-al)/2) tilde-FI(th,-al)(-1/w)",
        "Re(1+th+al) > 0", lambda ps: 1 + ps[0] + ps[1] > 0,
        "Re w > 0", lambda w: w.real > 0,
        ev7,
        lambda ps, w: gamma((1 + ps[0] + ps[1]) / 2)
        * _conf_tricomi_expected(ps[0], ps[1], w),
        (0.8, 1.5 + 1j, 0.5 + 0.5j))

    def ev8(params, w, tol):
        th, al = params
        et, e1 = exps_b(th, al)

        def extra(t):
            ex = w / t
            if ex.real < -700.0:
                return 0.0j
            return cmath.exp(ex)

        f = segment_power_integrand(0.0, 1.0, ((1, 0.0, et), (-1, 1.0, e1)),
                                    extra=extra)
        return tanh_sinh(f, 0.0, 1.0, tol)

    row(9, "[0,1] -> e^w (-w)^((-1+th-al)/2) tilde-FI(-th,-al)(1/w)",
        "Re(1-th+al) > 0", lambda ps: 1 - ps[0] + ps[1] > 0,
        "Re w < 0", lambda w: w.real < 0,
        ev8,
        lambda ps, w: gamma((1 - ps[0] + ps[1]) / 2)
        * _conf_minus_inf_expected(ps[0], ps[1], w),
        (-0.8, -1.5 + 1j, -0.5 + 0.5j))

    return tuple(rows)


# ---- Hermite rows ---------------------------------------------------------

_HERM_PARAM_SAMPLES = ((2 / 7,), (-1 / 7,), (5 / 13,))


def _build_herm_rows():
    rows = []
    row = _row_adder(rows, "herm", "hermite", _HERM_PARAM_SAMPLES)

    def ev1(params, w, tol):
        (la,) = params
        x0 = min(w.real - 1.0, 0.5)
        Y = math.sqrt(45.0 + x0 * x0)

        def f(t):
            if (t * t).real < -745.0:
                return 0.0j
            return cmath.exp(t * t) * jpow(w - t, -la - 0.5)

        val, err = tanh_sinh(f, complex(x0, -Y), complex(x0, Y), tol)
        return -1j * val, err

    row(1, "vertical line left of w of e^{t^2}(w-t)^{-la-1/2} -> sqrt(pi) S_la(w)",
        "none", lambda ps: True,
        "w off (-inf,0], |w| large enough for the asymptotic reference",
        lambda w: _off_cut(w, ("le", 0.0)),
        ev1,
        lambda ps, w: SQRT_PI * N.eval_hermite_S(ps[0], w),
        (5 + 1j, 4.5 + 2j, 6 + 0.5j))

    def ev2(params, w, tol):
        (la,) = params

        def g(s):
            t = w + 1j * s
            ex = t * t
            if ex.real < -745.0:
                return 0.0j
            return cmath.exp(ex) * s ** (-la - 0.5)

        return exp_sinh(g, tol)

    row(2, "[w, i inf) of e^{t^2}(-i(t-w))^{-la-1/2} -> e^{w^2} S^I_{-la}(-iw)",
        "Re la < 1/2", lambda ps: ps[0] < 0.5,
        "w off [0,inf)", lambda w: _off_cut(w, ("ge", 0.0)),
        ev2,
        lambda ps, w: cmath.exp(w * w)
        * 2 ** (ps[0] - 0.5) * gamma(0.5 - ps[0])
        * N.eval_hermite_S(-ps[0], -1j * w),
        (-3 + 4.5j, 2 + 5j, -5 + 2.5j))

    def ev3(params, w, tol):
        (la,) = params

        def g(s):
            ex = -s * s - 2 * s * w.real
            if ex < -700.0:
                return 0.0j
            return cmath.exp(-s * s - 2 * s * w) * s ** (la - 0.5)

        return exp_sinh(g, tol)

    row(3, "[0,inf) of e^{-t^2-2tw} t^{la-1/2} -> S^I_la(w)",
        "Re la > -1/2", lambda ps: ps[0] > -0.5,
        "w off (-inf,0]", lambda w: _off_cut(w, ("le", 0.0)),
        ev3,
        lambda ps, w: 2 ** (-ps[0] - 0.5) * gamma(ps[0] + 0.5)
        * N.eval_hermite_S(ps[0], w),
        (5 + 1j, 4.7 + 2j, 6 + 0.5j))

    def ev4(params, w, tol):
        (la,) = params
        g = la - 0.5
        X = math.sqrt(45.0) + 2 * abs(w)
        r = 0.5

        def kern(s, phase):
            ex = -s * s - 2 * s * w * phase
            if ex.real < -745.0:
                return 0.0j
            return cmath.exp(ex) * s ** complex(g)

        # left ray t = -s, arg(it) = -pi/2 ; right ray t = s, arg(it) = +pi/2
        left, e1 = tanh_sinh(
            lambda s: cmath.exp(-1j * math.pi * g / 2)
            * kern(s, -1.0), r, X, tol)
        right, e2 = tanh_sinh(
            lambda s: cmath.exp(1j * math.pi * g / 2)
            * kern(s, 1.0), r, X, tol)

        def arc(phi):
            t = r * cmath.exp(1j * phi)
            ex = -t * t - 2 * t * w
            return 1j * t * cmath.exp(complex(g)
                                      * (math.log(r) + 1j * (phi + math.pi / 2))
                                      + ex)

        mid, e3 = _gl_doubling(arc, -math.pi, 0.0, 8, tol)
        return left + right + mid, e1 + e2 + e3

    row(4, "real axis bypassing 0 below of e^{-t^2-2tw}(it)^{la-1/2} "
           "-> sqrt(pi) e^{w^2} S_{-la}(-iw)",
        "none", lambda ps: True,
        "w off [0,inf), small |Im w|",
        lambda w: _off_cut(w, ("ge", 0.0)),
        ev4,
        lambda ps, w: SQRT_PI * cmath.exp(w * w)
        * N.eval_hermite_S(-ps[0], -1j * w),
        (-5 + 0.3j, -4.6 - 0.4j, -6 + 0.5j))

    return tuple(rows)


# ---- 0F1 rows -------------------------------------------------------------

_0F1_PARAM_SAMPLES = ((2 / 7,), (-3 / 13,), (1 / 11,))


def _0f1_tilde_expected(al, w):
    """tilde-F_al(w) via the connection formula (series route)."""
    cp, cm = N.connection_coeffs_0f1(al)
    return cp * N.bold_F_0f1(al, w) + cm * jpow(w, -al) \
        * N.bold_F_0f1(-al, w)


def _build_0f1_rows():
    rows = []
    row = _row_adder(rows, "0f1", "0f1", _0F1_PARAM_SAMPLES)

    def ev1(params, w, tol):
        (al,) = params
        rho = max(1.0, abs(w))
        R = 40.0 + abs(w)
        val, err = double_ray_0(
            lambda t: cmath.exp(t + w / t), -al - 1, rho, R, tol)
        return val / (2j * math.pi), err / (2 * math.pi)

    row(1, "double ray around 0 of e^t e^{w/t} t^{-al-1} / 2 pi i "
           "-> bold-F_al(w)",
        "none", lambda ps: True,
        "Re w > 0", lambda w: w.real > 0,
        ev1,
        lambda ps, w: N.bold_F_0f1(ps[0], w),
        (0.5, 1 + 0.8j, 2 + 0.5j))

    def ev2(params, w, tol):
        (al,) = params
        rho = max(1.0, abs(w))

        def fn(t):
            if (w / t).real < -700.0 or t.real - abs(w) / abs(t) < -700.0:
                return 0.0j
            ex = t + w / t
            if ex.real < -700.0:
                return 0.0j
            return cmath.exp(ex)

        val, err = keyhole_0(fn, -al - 1, rho, tol)
        return val / (2j * math.pi), err / (2 * math.pi)

    row(2, "keyhole (0-0)^+ of e^t e^{w/t} t^{-al-1} / 2 pi i "
           "-> w^-al bold-F_{-al}(w)",
        "none", lambda ps: True,
        "Re w > 0", lambda w: w.real > 0,
        ev2,
        lambda ps, w: jpow(w, -ps[0]) * N.bold_F_0f1(-ps[0], w),
        (0.5, 1 + 0.8j, 2 + 0.5j))

    def ev3(params, w, tol):
        (al,) = params

        def g(s):
            if s > 700.0 or (w / s).real > 700.0:
                return 0.0j
            return cmath.exp(-s - w / s) * s ** (-al - 1)

        return exp_sinh(g, tol)

    row(3, "(-inf,0] of e^t e^{w/t}(-t)^{-al-1} -> sqrt(pi) tilde-F_al(w)",
        "none", lambda ps: True,
        "Re w > 0", lambda w: w.real > 0,
        ev3,
        lambda ps, w: SQRT_PI * _0f1_tilde_expected(ps[0], w),
        (0.5, 1 + 0.5j, 2))

    def ev4(params, w, tol):
        (al,) = params
        sq = cmath.sqrt(w)
        f = segment_power_integrand(
            -1.0, 1.0, ((-1, 1.0, al - 0.5), (1, -1.0, al - 0.5)),
            extra=lambda t: cmath.exp(2 * t * sq))
        return tanh_sinh(f, -1.0, 1.0, tol)

    row(4, "Poisson [-1,1] -> Gamma(al+1/2) sqrt(pi) bold-F_al(w)",
        "Re al > -1/2", lambda ps: ps[0] > -0.5,
        "w off (-inf,0]", lambda w: _off_cut(w, ("le", 0.0)),
        ev4,
        lambda ps, w: gamma(ps[0] + 0.5) * SQRT_PI * N.bold_F_0f1(ps[0], w),
        (0.4, 1 + 1j, 2 + 0.5j))

    def ev5(params, w, tol):
        (al,) = params
        sq = cmath.sqrt(w)
        # w - t^2 = (sq - t)(sq + t), factored through the endpoints
        f = segment_power_integrand(
            -sq, sq, ((-1, sq, -al - 0.5), (1, -sq, -al - 0.5)),
            extra=lambda t: cmath.exp(2 * t))
        return tanh_sinh(f, -sq, sq, tol)

    row(5, "Poisson [-sqrt w, sqrt w] -> Gamma(-al+1/2) sqrt(pi) w^-al "
           "bold-F_{-al}(w)",
        "Re al < 1/2", lambda ps: ps[0] < 0.5,
        "w off (-inf,0]", lambda w: _off_cut(w, ("le", 0.0)),
        ev5,
        lambda ps, w: gamma(-ps[0] + 0.5) * SQRT_PI * jpow(w, -ps[0])
        * N.bold_F_0f1(-ps[0], w),
        (0.4, 1 + 1j, 2 + 0.5j))

    def ev6(params, w, tol):
        (al,) = params
        sq = cmath.sqrt(w)

        def g(s):
            # t = -1 - s
            ex = 2 * (-1 - s) * sq
            if ex.real < -700.0:
                return 0.0j
            return s ** (al - 0.5) * (s + 2) ** (al - 0.5) * cmath.exp(ex)

        return exp_sinh(g, tol)

    row(6, "Poisson (-inf,-1] -> (1/2) Gamma(al+1/2) tilde-F_al(w)",
        "Re al > -1/2", lambda ps: ps[0] > -0.5,
        "w off (-inf,0]", lambda w: _off_cut(w, ("le", 0.0)),
        ev6,
        lambda ps, w: 0.5 * gamma(ps[0] + 0.5) * _0f1_tilde_expected(ps[0], w),
        (0.4, 1 + 1j, 2 + 0.5j))

    def ev7(params, w, tol):
        (al,) = params
        sq = cmath.sqrt(w)

        def g(s):
            # t = -sq - s: t^2 - w = s (s + 2 sq)
            ex = 2 * (-sq - s)
            if ex.real < -700.0:
                return 0.0j
            return s ** (-al - 0.5) * jpow(s + 2 * sq, -al - 0.5) \
                * cmath.exp(ex)

        return exp_sinh(g, tol)

    row(7, "Poisson (-inf,-sqrt w] -> (1/2) Gamma(-al+1/2) tilde-F_al(w)",
        "Re al < 1/2", lambda ps: ps[0] < 0.5,
        "w off (-inf,0]", lambda w: _off_cut(w, ("le", 0.0)),
        ev7,
        lambda ps, w: 0.5 * gamma(-ps[0] + 0.5)
        * _0f1_tilde_expected(ps[0], w),
        (0.4, 1 + 1j, 2 + 0.5j))

    return tuple(rows)


_ROW_BUILDERS = {
    "2f1": _build_2f1_rows,
    "gegenbauer": _build_geg_rows,
    "1f1": _build_conf_rows,
    "hermite": _build_herm_rows,
    "0f1": _build_0f1_rows,
}
_REP_ROWS = {}


def integral_rep_rows(family: str):
    if family not in _REP_ROWS:
        if family not in _ROW_BUILDERS:
            raise ValueError(f"no integral representations for {family!r}")
        _REP_ROWS[family] = _ROW_BUILDERS[family]()
    return _REP_ROWS[family]


# ---------------------------------------------------------------------------
# Contour-deformation consistency: the three-way split
# ---------------------------------------------------------------------------

def three_way_split_residual(al, be, mu, w, sign: int = 1,
                             tol: float = 1e-10):
    """Relative size of I(-inf,0) + phases * (I(0,1) + I(1,inf)) for the
    integrand (-t)^p (1-t)^q (w-t)^r with Im w < 0, the branches being
    continued clockwise from the left half-line onto the upper lip.

    Vanishes identically for an exact connection formula; returns
    |sum| / max |piece|.
    """
    w = complex(w)
    if w.imag >= 0:
        raise N.DomainError("the split is stated for Im w < 0")
    al = complex(al)
    be = complex(be)
    mu = complex(mu)
    p = (-1 - al + be + sign * mu) / 2
    q = (-1 + al - be + sign * mu) / 2
    r = (-1 - al - be - sign * mu) / 2

    i_neg, e1 = exp_sinh(lambda s: s ** p * (1 + s) ** q
                         * jpow(w + s, r), tol)
    f_mid = segment_power_integrand(0.0, 1.0, ((1, 0.0, p), (-1, 1.0, q),
                                               (-1, w, r)))
    i_mid, e2 = tanh_sinh(f_mid, 0.0, 1.0, tol)
    i_pos, e3 = exp_sinh(lambda s: (1 + s) ** p * s ** q
                         * jpow(w - 1 - s, r), tol)
    ph_mid = cmath.exp(-1j * math.pi * p)
    ph_pos = cmath.exp(-1j * math.pi * (p + q))
    total = i_neg + ph_mid * i_mid + ph_pos * i_pos
    scale = max(abs(i_neg), abs(i_mid), abs(i_pos), 1e-300)
    return abs(total) / scale
