"""Contour quadrature for the integral representations.

Engines
-------
* ``tanh_sinh``  — double-exponential quadrature on a (possibly complex)
  segment with algebraic endpoint singularities;
* ``exp_sinh``   — double-exponential quadrature on a ray [0, inf) with an
  algebraic singularity at 0 and exponential or algebraic decay;
* ``loop_0``     — a loop around the negative axis (keyhole or double ray),
  where the branch factor t^gamma collapses the two lips into a sine
  factor, plus a circle around 0 parametrized by its angle; it takes the
  integrand by its logarithm, as the power integrands below do.

Every contour, circles included, runs on the two double-exponential rules,
so the module needs nothing beyond the standard library.

The solution evaluators (`tricomi_solution`, `hermite_S_solution`,
`bessel_tilde_solution`) raise `QuadratureError` when the value is not
finite or the error estimate misses the requested tolerance by a wide
margin, and `bessel_tilde_solution` raises `DomainError` at Re w <= 0,
where its integral diverges; the confluent one at -infinity is
`tricomi_solution` by 1f1:sym:03.

The catalog of every printed integral representation is
`integral_rep_rows`, built by `hyperclass.rep_rows` on its first call, so
that an evaluation compiles only the rules and the solution evaluators.

Everything here runs on complex numbers only: `numerics` takes the
derivatives of a solution from its values at root-shifted parameters, and
the raising steps of the solution evaluators are scalar root shifts too.
"""

from __future__ import annotations

import cmath
import functools
import math
from array import array
from typing import Callable, Optional

from . import numerics as N
from .numerics import jpow, rgamma, NumericsError


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

_U_MAX = 6.5


def _sigmoid(v: float) -> float:
    """1 / (1 + exp(-2v)) computed stably."""
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-2.0 * v))
    e = math.exp(2.0 * v)
    return e / (1.0 + e)


def _sech2(v: float) -> float:
    e = math.exp(-2.0 * abs(v))
    return 4.0 * e / (1.0 + e) ** 2


def _ts_node(u: float):
    """tanh-sinh abscissa: distance fraction to the NEAR endpoint (so that
    nodes close to an endpoint keep full relative accuracy) and weight.

    Returns (near_frac, weight); the node is za + d*near_frac for u <= 0
    and zb - d*near_frac for u > 0.  None past the underflow cut.
    """
    v = 0.5 * math.pi * math.sinh(u)
    if abs(v) > 350.0:
        return None
    near = _sigmoid(-abs(v))
    # dt/du = (zb-za) * d(frac)/du, d(frac)/du = (pi/4) cosh(u) sech^2(v)
    wgt = 0.25 * math.pi * math.cosh(u) * _sech2(v)
    return near, wgt


def _es_node(u: float):
    """The scale-free part of the exp-sinh map at u: (exp(v), cosh(u)) with
    v = (pi/2) sinh(u), or None past the overflow cut."""
    v = 0.5 * math.pi * math.sinh(u)
    if abs(v) > 690.0:
        return None
    return math.exp(v), math.cosh(u)


@functools.cache
def _de_level(node, level: int):
    """The nodes of one doubling level: u = k h, h = 0.5 / 2**level, every
    k at level 0 and odd k above it.  Two sides, u >= 0 then u < 0, each
    outward from 0 and cut before the first u with |u| > 6.5 or node(u)
    None.  A side is an array of doubles, u and the two of node(u) per
    node (see `_triples`).  Cached: a level's nodes depend on nothing but
    the map.  `tanh_sinh` reads them here, `exp_sinh` through
    `_es_level`; a full set of levels takes about 0.3 MB for each."""
    h = 0.5 / 2 ** level
    step = 1 if level == 0 else 2
    sides = []
    for sign, k in ((1.0, 0 if level == 0 else 1), (-1.0, 1)):
        side = array("d")
        while True:
            u = sign * k * h
            if abs(u) > _U_MAX + 1e-9:
                break
            got = node(u)
            if got is None:
                break
            side.append(u)
            side.extend(got)
            k += step
        sides.append(side)
    return tuple(sides)


def _triples(side):
    """(u, a, b) per node of a `_de_level` side, where (a, b) = node(u)."""
    it = iter(side)
    return zip(it, it, it)


@functools.cache
def _es_level(level: int):
    """The exp-sinh nodes of one doubling level, those of
    `_de_level(_es_node, level)`: per side three arrays of doubles, e^v,
    the weight e^v * 0.5 * pi * cosh(u) of the node at scale 1 (the
    arithmetic `exp_sinh` does at any scale) and cosh(u).  Cached, about
    24 bytes a node; the u of `_de_level` are not kept."""
    sides = []
    for side in _de_level.__wrapped__(_es_node, level):
        ev, ch = side[1::3], side[2::3]
        wgt = array("d", [s * 0.5 * math.pi * c for s, c in zip(ev, ch)])
        sides.append((ev, wgt, ch))
    return tuple(sides)


def _de_integrate(f, tol: float, max_level: int, ends=None,
                  scale: float = 1.0):
    """The doubling trapezoid of both rules: `tanh_sinh` on the segment
    ends = (za, zb, aware), `exp_sinh` at `scale` where ends is None.

    Level by level, h = 0.5 / 2**level, it sums w f(x) over that level's
    nodes, each side outward from 0, and adds the sum to the total.  A
    node where f raises an arithmetic error, returns None or a value that
    is not finite is skipped; a side ends after four nodes in a row whose
    |w f| falls below 1e-18 of the largest in the level so far.  From
    level 2 on it stops at the first level that moves h * total by at most
    tol of its size, and returns (value, that last move)."""
    if ends is not None:
        za, zb, aware = ends
        d = zb - za
    inf = err = math.inf
    pi = math.pi
    h = 0.5
    total = value = None
    for level in range(max_level + 1):
        part = 0.0j
        top = floor = 0.0
        for side in (_es_level(level) if ends is None
                     else map(_triples, _de_level(_ts_node, level))):
            misses = 0
            # tanh-sinh: (u, near, weight); exp-sinh: (e^v, weight at
            # scale 1, cosh u), see `_ts_node` and `_es_level`
            for u, a, b in (side if ends is not None else zip(*side)):
                try:
                    if ends is None:
                        if scale == 1.0:
                            wgt = a
                        else:
                            u = scale * u
                            wgt = u * 0.5 * pi * b
                        val = f(u)
                    else:
                        off = d * a
                        wgt = b * d
                        if u > 0:
                            val = f(zb - off, 1, off) if aware \
                                else f(zb - off)
                        else:
                            val = f(za + off, 0, off) if aware \
                                else f(za + off)
                except (OverflowError, ZeroDivisionError, ValueError):
                    continue
                if val is None:
                    continue
                size = abs(val)
                if not size < inf:
                    continue
                part = wgt * val + part
                mag = abs(wgt) * size
                if mag > top:
                    top = mag
                    floor = 1e-18 * mag
                    misses = 0
                elif mag < floor:
                    misses += 1
                    if misses >= 4:
                        break
                else:
                    misses = 0
        if total is None:
            total = part
            value = total * h
            continue
        h *= 0.5
        total = total + part
        new_value = total * h
        err = abs(new_value - value)
        value = new_value
        if err <= tol * max(abs(value), 1e-300) and level > 1:
            return value, err
    return value, err


def tanh_sinh(f: Callable, za, zb, tol: float = 1e-11, max_level: int = 9):
    """Integral of f over the straight segment [za, zb].

    Endpoint singularities of algebraic type are handled.  If f carries
    the attribute ``endpoint_aware`` it is called as f(t, side, off) with
    side 0/1 naming the nearer endpoint (za/zb) and off the exact complex
    offset from it (t = za + off or zb - off), so singular factors keep
    full relative accuracy arbitrarily close to the endpoints.  Returns
    (value, error_estimate).
    """
    aware = getattr(f, "endpoint_aware", False)
    if type(f) is EndpointAware:
        f = f.fn        # one frame less a node
    return _de_integrate(f, tol, max_level, (complex(za), complex(zb), aware))


def exp_sinh(g: Callable, tol: float = 1e-11, max_level: int = 9,
             scale: float = 1.0):
    """Integral of g over (0, inf); g may be singular at 0 and must decay.

    `scale` rescales the abscissas (s -> scale * s) to centre the map on
    the integrand's natural length; at scale 1 the (s, weight) pairs are
    read from the cached `_es_level` tables, at any other scale computed
    from them per node.  Returns (value, error_estimate).
    """
    return _de_integrate(g, tol, max_level, None, scale)


class EndpointAware:
    """Wraps fn(t, side, off) so tanh_sinh feeds it exact endpoint offsets."""
    endpoint_aware = True

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, t, side=None, off=None):
        return self.fn(t, side, off)


def segment_power_integrand(za, zb, factors, extra: Optional[Callable] = None):
    """Integrand prod (c_j (t - p_j))^{g_j} * e^{extra(t)} on the segment
    [za, zb], as one exponential: exp(extra(t) + sum g_j log(c_j (t -
    p_j))), with principal logarithms.  A factor whose p_j coincides with
    an endpoint is evaluated from the exact offset (full relative accuracy
    at the singularity).

    A node whose exponent has real part below -700 is an exact zero (an
    underflow guard), so it counts as a zero even where one factor alone
    would overflow.  A factor that is exactly 0 makes the node 0 if its
    Re g_j > 0 and skips it otherwise, as `jpow` would."""
    za = complex(za)
    zb = complex(zb)
    # per side (0: za, 1: zb), each factor with whether p_j is that endpoint
    sided = tuple(tuple((c, p, complex(g), complex(p) == end)
                        for c, p, g in factors) for end in (za, zb))
    log = cmath.log
    exp = cmath.exp

    def fn(t, side, off):
        ex = 0.0j if extra is None else extra(t)
        try:
            for c, p, g, at_end in sided[1 if side else 0]:
                if at_end:
                    lv = c * off if side == 0 else -(c * off)
                else:
                    lv = c * (t - p)
                ex = ex + g * log(lv)
        except ValueError:          # lv == 0
            return 0.0j if g.real > 0 else None
        return 0.0j if ex.real < -700.0 else exp(ex)

    return EndpointAware(fn)


def ray_power_integrand(z0, d, factors, extra: Optional[Callable] = None):
    """g(s) = prod (c_j (t - p_j))^{g_j} * e^{extra(t)} at t = z0 + d s, the
    ray sibling of `segment_power_integrand`, one exponential in the same
    way.  exp_sinh(g) integrates over s in (0, inf) with no Jacobian d, so the
    ray (-inf, 0] (z0 = 0, d = -1) gives int f(-s) ds.  A factor whose p_j
    is z0 is evaluated from the exact offset c_j d s."""
    z0 = complex(z0)
    d = complex(d)
    # each factor with c_j d if p_j is the start z0, else None
    started = tuple((c * d if complex(p) == z0 else None, c, p, complex(e))
                    for c, p, e in factors)
    log = cmath.log
    exp = cmath.exp

    def g(s):
        t = z0 + d * s
        ex = 0.0j if extra is None else extra(t)
        try:
            for cd, c, p, e in started:
                ex = ex + e * log(c * (t - p) if cd is None else cd * s)
        except ValueError:          # a factor is 0
            return 0.0j if e.real > 0 else None
        return 0.0j if ex.real < -700.0 else exp(ex)

    return g


def power_integral(path, factors, tol: float,
                   extra: Optional[Callable] = None):
    """Integral of prod (c_j (t - p_j))^{g_j} * e^{extra(t)} along path,
    either ("seg", za, zb) by `tanh_sinh` or ("ray", z0, d) by `exp_sinh`
    in the convention of `ray_power_integrand`.  Returns (value,
    error_estimate).
    """
    kind, a, b = path
    if kind == "seg":
        return tanh_sinh(segment_power_integrand(a, b, factors, extra),
                         a, b, tol)
    if kind == "ray":
        return exp_sinh(ray_power_integrand(a, b, factors, extra), tol)
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# Loop contours around the negative axis
# ---------------------------------------------------------------------------

def loop_0(log_fn: Callable, gam: complex, rho: float, end: float,
           tol: float = 1e-11):
    """Integral of t^gam fn(t) over the loop from -end along the lower lip
    of the negative axis, counterclockwise around 0 at radius rho, and back
    to -end on the upper lip: end = 0 is a keyhole (fn must vanish fast
    enough at 0-), end = R > rho a double ray.  fn is given by a logarithm
    log_fn, and each node is one exponential with the underflow guard of
    `segment_power_integrand`.  The lips add up to 2i sin(pi gam)
    int_end^rho s^gam fn(-s) ds; their error estimate is scaled by the same
    factor.  The circle is `tanh_sinh` over the angle from -pi to pi, with
    the phase of t^gam tracked continuously, in two halves split at 0, the
    point nearest a branch point of fn on the positive axis.  Returns
    (value, error_estimate)."""
    gam = complex(gam)
    log_rho = math.log(rho)
    log = cmath.log
    exp = cmath.exp

    def lip(s):
        ex = gam * log(s) + log_fn(-s)
        return 0.0j if ex.real < -700.0 else exp(ex)

    def arc(phi):
        phi = phi.real              # tanh_sinh passes a complex angle
        t = cmath.rect(rho, phi)
        ex = gam * complex(log_rho, phi) + log_fn(t)
        return 0.0j if ex.real < -700.0 else 1j * t * exp(ex)

    lips, e1 = tanh_sinh(lip, end, rho, tol)
    lower, e2 = tanh_sinh(arc, -math.pi, 0.0, tol)
    upper, e3 = tanh_sinh(arc, 0.0, math.pi, tol)
    sine = 2j * cmath.sin(math.pi * gam)
    return sine * lips + (lower + upper), abs(sine) * e1 + (e2 + e3)


# ---------------------------------------------------------------------------
# Solution evaluators used by `numerics` at a scalar w where no certified
# route answers (on a jet `numerics` composes scalar values instead)
# ---------------------------------------------------------------------------

def _checked(value, err, tol: float):
    """The quadrature value, unless it is not finite or its error estimate
    misses the requested tolerance by a wide margin: then QuadratureError
    carries both."""
    size = abs(value)
    if not (math.isfinite(size) and err <= max(10 * tol * max(size, 1.0),
                                               1e-6)):
        raise QuadratureError("quadrature tolerance unreachable",
                              value=value, estimate=err)
    return value


_EXP_MAX = 709.782712893384   # log of the largest double


def _cpow(x, e: complex):
    """`jpow` for a scalar base and a complex exponent, without its type
    tests: the Tricomi integrand calls it once per node."""
    if x == 0:
        return 0.0j if e.real > 0 else cmath.inf
    return cmath.exp(e * cmath.log(x))


def tricomi_solution(th, al, w, tol: float = 1e-11):
    """w^{(-1-th-al)/2} tilde-F_{th,al}(-1/w) by Laplace-type quadrature
    (valid (1 + th -+ al).real > 0 for one sign; else raising steps)."""
    N.require_finite(th, al, w)
    th = complex(th)
    al = complex(al)
    # the integrand exponent at 0 must be integrable; use the sign of alpha
    # giving the larger margin (the target function is even in alpha)
    margins = [(1 + th - s * al).real for s in (1, -1)]
    if max(margins) <= 0.02:
        # U_{th,al} = (w + (1+th-al)/2) U_{th+2,al} - w U'_{th+2,al} (DLMF
        # 13.3.10), with U'_{th+2,al} = -(3+th+al)/2 U_{th+3,al+1} (13.3.22)
        return (w + (1 + th - al) / 2) * tricomi_solution(th + 2, al, w, tol) \
            + w * (3 + th + al) / 2 * tricomi_solution(th + 3, al + 1, w, tol)
    sgn = 1 if margins[0] >= margins[1] else -1
    a2 = sgn * al
    p = (-1 + th - a2) / 2
    r = (-1 - th - a2) / 2

    def g(s):
        if s > 700.0:
            return 0.0j
        return (s ** p) * math.exp(-s) * _cpow(w + s, r)

    out = _checked(*exp_sinh(g, tol), tol) * rgamma((1 + th - a2) / 2)
    if sgn < 0:
        out = out * jpow(w, -al)
    return out


def hermite_S_solution(la, w, tol: float = 1e-11):
    """S_lambda(w) from the Laplace integral int_0^inf e^{-t^2-2tw}
    t^{lambda-1/2} dt (valid Re lambda > -1/2; else one raising step)."""
    N.require_finite(la, w)
    la = complex(la)
    if la.real <= -0.49:
        # S_la = -(S'_{la+1} - 2 w S_{la+1}) / 2, with S'_{la+1} =
        # -(la+3/2) S_{la+2} (the Laplace integral)
        return w * hermite_S_solution(la + 1, w, tol) \
            + (la + 1.5) / 2 * hermite_S_solution(la + 2, w, tol)
    xr = w.real
    e = la - 0.5
    real = not w.imag

    def g(s):
        ex = -s * s - 2 * s * xr
        if ex < -700.0:
            return 0.0j
        if ex > _EXP_MAX:
            raise N.DomainError("S_lambda: the Laplace integrand overflows "
                                "(Re w too far below 0)")
        if real:
            return (s ** e) * math.exp(ex)
        return (s ** e) * cmath.exp(-s * s - 2 * s * w)

    return (2 ** (la + 0.5)) * rgamma(la + 0.5) \
        * _checked(*exp_sinh(g, tol), tol)


def bessel_tilde_solution(al, w, tol: float = 1e-11):
    """tilde-F_alpha(w) from int_{-inf}^0 e^t e^{w/t} (-t)^{-al-1} dt
    = sqrt(pi) tilde-F_alpha(w), Re w > 0."""
    N.require_finite(al, w)
    al = complex(al)
    xr = w.real
    if xr <= 0:
        raise N.DomainError("quadrature route needs Re w > 0")
    e = -al - 1

    def g(s):
        if s > 700.0 or xr / s > 700.0:
            return 0.0j
        return math.exp(-s) * cmath.exp(-w / s) * s ** e

    val, err = exp_sinh(g, tol, scale=max(1.0, math.sqrt(abs(w))))
    return _checked(val, err, tol) / SQRT_PI


@functools.cache
def integral_rep_rows(family: str):
    """The family's `rep_rows.RepRow`s, built on the first call for it."""
    from . import rep_rows
    if family not in rep_rows.ROW_BUILDERS:
        raise ValueError(f"no integral representations for {family!r}")
    return rep_rows.ROW_BUILDERS[family]()
