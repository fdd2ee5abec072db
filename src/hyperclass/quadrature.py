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

On top of the engines sits the catalog of every printed integral
representation (`integral_rep_rows`).  Each family states its integrands
once, as the points p_j, exponents g_j and the exponent extra of
prod (c_j (t - p_j))^{g_j} e^{extra(t)}; every extra factor of the catalog
is an exponential.  An integrand is one exponential a node,
exp(extra(t) + sum g_j log(c_j (t - p_j))), and an exact 0 where that
exponent's real part is below -700.  A row takes one of them over one
contour, with the signs c_j that pick the branches there: `power_integral`
sends a segment to `segment_power_integrand` and `tanh_sinh`, a ray to
`ray_power_integrand` and `exp_sinh`.  The Hankel loop around 0 and w
(1f1:int:01) is three such pieces: rays from -inf below and above both
points, joined by a segment right of them.  The keyhole and double-ray
rows (1f1:int:07, 0f1:int:01, 0f1:int:02) are `loop_0` contours, and the
real axis bypassing 0 below (herm:int:04) is two segments through -i/2.
Each row also carries its parameter constraint, admissible domain and an
expected value computed independently from series/connection formulas in
`numerics`.

Everything here runs on complex numbers only: `numerics` takes the
derivatives of a solution from its values at root-shifted parameters, and
the raising steps of the solution evaluators are scalar root shifts too.
"""

from __future__ import annotations

import cmath
import functools
import math
from array import array
from typing import Callable, NamedTuple, Optional

from . import numerics as N
from .numerics import jpow, jsqrt, rgamma, gamma, NumericsError


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


# ---------------------------------------------------------------------------
# The representation catalog
# ---------------------------------------------------------------------------

class RepRow(NamedTuple):
    """One printed integral representation.

    evaluate(params, w, tol) -> (value, error_estimate) by quadrature;
    expected(params, w)      -> independent value via series/connection.
    """
    id: str
    family: str
    location: str
    constraint: Callable
    domain: Callable
    evaluate: Callable
    expected: Callable
    samples: tuple


def _row_adder(rows: list, prefix: str, family: str, param_samples):
    """row(i, desc, constraint, domain, ev, exp, ws) appends the RepRow
    "<prefix>:int:<i>", sampled at every parameter sample times every w in
    ws."""

    def row(i, desc, constraint, domain, ev, exp, ws):
        samples = tuple((ps, w) for ps in param_samples for w in ws)
        rows.append(RepRow(f"{prefix}:int:{i:02d}", family, desc, constraint,
                           domain, ev, exp, samples))

    return row


def _power_row(integrand, path, *signs):
    """The evaluator of a row whose integrand is prod (c_j (t - p_j))^{g_j}
    * e^{extra(t)}: integrand(params, w) gives the points p_j, the
    exponents g_j and the exponent extra (or None), the signs c_j pick each
    factor's branch on this row's contour, and path(w) is the contour (see
    `power_integral`)."""

    def evaluate(params, w, tol):
        points, exps, extra = integrand(params, w)
        return power_integral(path(w), tuple(zip(signs, points, exps)), tol,
                              extra)

    return evaluate


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

def _euler_2f1(ps, w):
    """The Euler integrand (-t)^p (1-t)^q (w-t)^r: points 0, 1, w."""
    al, be, mu = ps
    return ((0.0, 1.0, w),
            ((-1 - al + be + mu) / 2, (-1 + al - be + mu) / 2,
             (-1 - al - be - mu) / 2),
            None)


_2F1_PARAM_SAMPLES = (
    (2 / 7, 3 / 11, 1 / 13),
    (-1 / 7, 2 / 11, 3 / 13),
    (3 / 7, -2 / 11, 2 / 13),
)


def _build_2f1_rows():
    rows = []
    row = _row_adder(rows, "2f1", "2f1", _2F1_PARAM_SAMPLES)
    euler = functools.partial(_power_row, _euler_2f1)

    row(1, "[1,inf) Euler integral -> FI(al,be,mu)(w)",
        lambda ps: (1 + ps[0]) > abs(ps[1] - ps[2]),
        lambda w: _off_cut(w, ("ge", 1.0)),
        euler(lambda w: ("ray", 1.0, 1.0), 1, 1, 1),
        lambda ps, w: N.FI_2f1(ps[0], ps[1], ps[2], w),
        (0.3 + 0.4j, -0.5 + 0.2j, 0.4))

    row(2, "[0,w] integral -> w^-al FI(-al,be,-mu)(w)",
        lambda ps: (1 - ps[0]) > abs(ps[1] - ps[2]),
        lambda w: _off_cut(w, ("le", 0.0), ("ge", 1.0)),
        euler(lambda w: ("seg", 0.0, w), 1, -1, -1),
        lambda ps, w: jpow(w, -ps[0]) * N.FI_2f1(-ps[0], ps[1], -ps[2], w),
        (0.3 + 0.4j, 0.6 + 0.1j, 0.5))

    row(3, "[w,0] integral -> (-w)^-al FI(-al,be,-mu)(w)",
        lambda ps: (1 - ps[0]) > abs(ps[1] - ps[2]),
        lambda w: _off_cut(w, ("ge", 0.0)),
        euler(lambda w: ("seg", w, 0.0), -1, -1, 1),
        lambda ps, w: jpow(-w, -ps[0]) * N.FI_2f1(-ps[0], ps[1], -ps[2], w),
        (-0.5, -0.3 + 0.5j, -1.2 + 0.4j))

    row(4, "(-inf,0] integral -> FI(be,al,mu)(1-w)",
        lambda ps: (1 + ps[1]) > abs(ps[0] - ps[2]),
        lambda w: _off_cut(w, ("le", 0.0)),
        euler(lambda w: ("ray", 0.0, -1.0), -1, -1, -1),
        lambda ps, w: N.FI_2f1(ps[1], ps[0], ps[2], 1 - w),
        (0.4 + 0.3j, 2 + 1j, 0.7))

    row(5, "[w,1] integral -> (1-w)^-be FI(-be,al,-mu)(1-w)",
        lambda ps: (1 - ps[1]) > abs(ps[0] + ps[2]),
        lambda w: _off_cut(w, ("le", 0.0), ("ge", 1.0)),
        euler(lambda w: ("seg", w, 1.0), 1, -1, 1),
        lambda ps, w: jpow(1 - w, -ps[1])
        * N.FI_2f1(-ps[1], ps[0], -ps[2], 1 - w),
        (0.3 + 0.2j, 0.5, 0.7 + 0.1j))

    row(6, "[1,w] integral -> (w-1)^-be FI(-be,al,-mu)(1-w)",
        lambda ps: (1 - ps[1]) > abs(ps[0] + ps[2]),
        lambda w: _off_cut(w, ("le", 1.0)),
        euler(lambda w: ("seg", 1.0, w), 1, 1, -1),
        lambda ps, w: jpow(w - 1, -ps[1])
        * N.FI_2f1(-ps[1], ps[0], -ps[2], 1 - w),
        (1.5 + 0.5j, 2 + 1j, 1.2 + 0.3j))

    row(7, "[w,inf) integral -> w^((-1-al-be+mu)/2) FI(-mu,be,-al)(1/w)",
        lambda ps: (1 - ps[2]) > abs(ps[0] + ps[1]),
        lambda w: _off_cut(w, ("le", 1.0)),
        euler(lambda w: ("ray", w, 1.0), 1, 1, 1),
        lambda ps, w: jpow(w, (-1 - ps[0] - ps[1] + ps[2]) / 2)
        * N.FI_2f1(-ps[2], ps[1], -ps[0], 1 / w),
        (1.5 + 0.5j, 3 + 1j, 2.5))

    row(8, "(-inf,w] integral -> (-w)^((-1-al-be+mu)/2) FI(-mu,be,-al)(1/w)",
        lambda ps: (1 - ps[2]) > abs(ps[0] + ps[1]),
        lambda w: _off_cut(w, ("ge", 0.0)),
        euler(lambda w: ("ray", w, -1.0), -1, -1, -1),
        lambda ps, w: jpow(-w, (-1 - ps[0] - ps[1] + ps[2]) / 2)
        * N.FI_2f1(-ps[2], ps[1], -ps[0], 1 / w),
        (-0.5, -1 + 0.5j, -0.3 + 0.8j))

    row(9, "[0,1] integral -> (-w)^((-1-al-be-mu)/2) FI(mu,be,al)(1/w)",
        lambda ps: (1 + ps[2]) > abs(ps[0] - ps[1]),
        lambda w: _off_cut(w, ("ge", 0.0)),
        euler(lambda w: ("seg", 0.0, 1.0), 1, -1, 1),
        lambda ps, w: jpow(-w, (-1 - ps[0] - ps[1] - ps[2]) / 2)
        * N.FI_2f1(ps[2], ps[1], ps[0], 1 / w),
        (-0.5, -1 + 0.5j, -0.3 + 0.8j))

    row(10, "[0,1] integral -> w^((-1-al-be-mu)/2) FI(mu,be,al)(1/w)",
        lambda ps: (1 + ps[2]) > abs(ps[0] - ps[1]),
        lambda w: _off_cut(w, ("le", 1.0)),
        euler(lambda w: ("seg", 0.0, 1.0), 1, -1, -1),
        lambda ps, w: jpow(w, (-1 - ps[0] - ps[1] - ps[2]) / 2)
        * N.FI_2f1(ps[2], ps[1], ps[0], 1 / w),
        (1.5 + 0.5j, 3 + 1j, 2.5))

    return tuple(rows)


# ---- Gegenbauer rows ------------------------------------------------------

def _geg_a(ps, w):
    """Type a, (t^2-1)^{-1/2-la} (w-t)^{-1/2-al+la}: points 1, -1, w."""
    al, la = ps
    e1 = -0.5 - la
    return (1.0, -1.0, w), (e1, e1, -0.5 - al + la), None


def _geg_roots(w):
    """The roots sqrt(w^2-1) - w and -sqrt(w^2-1) - w of t^2 + 2tw + 1."""
    rt = jsqrt(w * w - 1)
    return rt - w, -rt - w


def _geg_b(sign):
    """Type b, (t^2+2tw+1)^{-al-1/2} (+-t)^{-1/2+al+sign la} with the
    quadratic factored through its roots: points t1, t2, 0."""

    def integrand(ps, w):
        al, la = ps
        eq = -al - 0.5
        return (*_geg_roots(w), 0.0), (eq, eq, -0.5 + al + sign * la), None

    return integrand


def _between_roots(w):
    """The segment from the lower root of t^2 + 2tw + 1 to the upper one."""
    t1, t2 = _geg_roots(w)
    return ("seg", t1, t2) if t1.imag < t2.imag else ("seg", t2, t1)


_GEG_PARAM_SAMPLES = (
    (2 / 7, 1 / 11),
    (3 / 13, -1 / 7),
    (5 / 11, 2 / 13),
)


def _build_geg_rows():
    rows = []
    row = _row_adder(rows, "geg", "gegenbauer", _GEG_PARAM_SAMPLES)
    a = functools.partial(_power_row, _geg_a)
    b_plus = functools.partial(_power_row, _geg_b(1))
    b_minus = functools.partial(_power_row, _geg_b(-1))

    row(1, "type a, (-inf,-1] -> SI(al,la)(w)",
        lambda ps: 0.5 > ps[1] > -0.5 - ps[0],
        lambda w: _off_cut(w, ("le", -1.0)),
        a(lambda w: ("ray", -1.0, -1.0), -1, -1, -1),
        lambda ps, w: N.SI_geg(ps[0], ps[1], w),
        (0.5 + 0.5j, 2 + 1j, -0.3 + 0.6j))

    row(2, "type a, [w,1] with (t-w)^(-1/2-al+la) -> (1-w^2)^-al SI(-al,la)(w)",
        lambda ps: 0.5 > ps[1] > -0.5 + ps[0],
        lambda w: _off_cut(w, ("le", -1.0), ("ge", 1.0)) and w.imag != 0,
        a(lambda w: ("seg", w, 1.0), -1, 1, 1),
        lambda ps, w: jpow(1 - w * w, -ps[0]) * N.SI_geg(-ps[0], ps[1], w),
        (0.3 + 0.4j, -0.5 + 0.3j, 0.6 - 0.2j))

    row(3, "type a, [-1,1] -> (w^2-1)^((-1-2al+2la)/4) S0(-la,al)(w/sqrt(w^2-1))",
        lambda ps: 0.5 > ps[1],
        lambda w: _off_cut(w, ("le", 1.0)),
        a(lambda w: ("seg", -1.0, 1.0), -1, 1, -1),
        lambda ps, w: jpow(w * w - 1, (-1 - 2 * ps[0] + 2 * ps[1]) / 4)
        * N.S0_geg(-ps[1], ps[0], w / jsqrt(w * w - 1)),
        (1.5 + 0.8j, 2 + 0.5j, 2.5))

    row(4, "type a, [w,inf) -> (w^2-1)^((-1-2al-2la)/4) SII(la,al)(w/sqrt(w^2-1))",
        lambda ps: ps[1] + 0.5 > abs(ps[0]),
        lambda w: _off_cut(w, ("le", 1.0)),
        a(lambda w: ("ray", w, 1.0), 1, 1, 1),
        lambda ps, w: jpow(w * w - 1, (-1 - 2 * ps[0] - 2 * ps[1]) / 4)
        * N.SII_geg(ps[1], ps[0], w / jsqrt(w * w - 1)),
        (1.5 + 0.8j, 2 + 0.5j, 2.5))

    row(5, "type b, [0,inf) -> SII(al,la)(w)",
        lambda ps: ps[0] + 0.5 > abs(ps[1]),
        lambda w: _off_cut(w, ("le", -1.0)),
        b_plus(lambda w: ("ray", 0.0, 1.0), 1, 1, 1),
        lambda ps, w: N.SII_geg(ps[0], ps[1], w),
        (0.5 + 0.5j, 2 + 1j, 0.8))

    def _b2_domain(w):
        # w off the real axis (so Im(t2 - t1) > 0), and the segment between
        # the roots clear of the branch cut of (-t)^(...), [0, inf)
        if w.imag == 0:
            return False
        _, t1, t2 = _between_roots(w)
        d = t2 - t1
        tau = -t1.imag / d.imag
        return not (0.0 < tau < 1.0 and (t1 + tau * d).real > 0.0)

    row(6, "type b, between the roots -> i (1-w^2)^-al S0(-al,-la)(w)",
        lambda ps: 0.5 > ps[0],
        _b2_domain,
        b_plus(_between_roots, 1, 1, -1),
        lambda ps, w: 1j * jpow(1 - w * w, -ps[0])
        * N.S0_geg(-ps[0], -ps[1], w),
        (0.3 + 0.2j, 0.2 - 0.3j, 0.5 + 0.6j))

    row(7, "type b, [root,0] -> (w^2-1)^((-1-2al+2la)/4) SI(-la,al)(w/sqrt(w^2-1))",
        lambda ps: (-ps[1] + 0.5 > -ps[0]) and (-ps[0] > -0.5),
        lambda w: _off_cut(w, ("le", 1.0)),
        b_minus(lambda w: ("seg", _geg_roots(w)[0], 0.0), 1, 1, -1),
        lambda ps, w: jpow(w * w - 1, (-1 - 2 * ps[0] + 2 * ps[1]) / 4)
        * N.SI_geg(-ps[1], ps[0], w / jsqrt(w * w - 1)),
        (1.5 + 0.8j, 2 + 0.5j, 2.5 + 1j))

    row(8, "type b, (-inf,-root] -> (w^2-1)^(-1/4-al/2-la/2) SI(la,al)(w/sqrt(w^2-1))",
        lambda ps: (ps[1] + 0.5 > -ps[0]) and (-ps[0] > -0.5),
        lambda w: _off_cut(w, ("le", 1.0)),
        b_minus(lambda w: ("ray", _geg_roots(w)[1], -1.0), -1, -1, -1),
        lambda ps, w: jpow(w * w - 1, -0.25 - ps[0] / 2 - ps[1] / 2)
        * N.SI_geg(ps[1], ps[0], w / jsqrt(w * w - 1)),
        (1.5 + 0.8j, 2 + 0.5j, 2.5 + 1j))

    return tuple(rows)


# ---- Confluent rows -------------------------------------------------------

def _conf_a(ps, w):
    """Type a, t^p (t-w)^r e^t: points 0, w."""
    th, al = ps
    return (0.0, w), ((-1 + th - al) / 2, (-1 - th - al) / 2), lambda t: t


def _conf_b(ps, w):
    """Type b, t^{-1-al} (1-t)^{(-1-th+al)/2} e^{w/t}: points 0, 1."""
    th, al = ps
    return (0.0, 1.0), (-1 - al, (-1 - th + al) / 2), lambda t: w / t


_CONF_PARAM_SAMPLES = (
    (1 / 7, 2 / 11),
    (-2 / 13, 3 / 7),
    (3 / 11, -1 / 7),
)


def _build_conf_rows():
    rows = []
    row = _row_adder(rows, "1f1", "1f1", _CONF_PARAM_SAMPLES)
    a = functools.partial(_power_row, _conf_a)
    b = functools.partial(_power_row, _conf_b)

    def ev1(params, w, tol):
        # from -inf up to lo below 0 and w, up to hi right of them, back to
        # -inf (a ray with d = -1 runs from -inf to its start): the cuts of
        # t^p and (t-w)^r lie between the rays, so principal branches serve
        points, exps, extra = _conf_a(params, w)
        factors = tuple(zip((1, 1), points, exps))
        x = max(1.0, w.real + 1.0)
        lo = complex(x, -max(1.0, 1.0 - w.imag))
        hi = complex(x, max(1.0, w.imag + 1.0))
        pieces = (("ray", lo, -1.0), ("seg", lo, hi), ("ray", hi, -1.0))
        (v1, e1), (v2, e2), (v3, e3) = (
            power_integral(path, factors, tol, extra) for path in pieces)
        return (v1 + v2 - v3) / (2j * math.pi), (e1 + e2 + e3) / (2 * math.pi)

    row(1, "loop around 0 and w of t^p e^t (t-w)^r / 2 pi i -> bold-F(th,al)(w)",
        lambda ps: True,
        lambda w: w.imag != 0,
        ev1,
        lambda ps, w: N.bold_F_1f1(ps[0], ps[1], w),
        (0.5 + 0.8j, 1 + 1j, -0.6 + 0.7j))

    row(2, "[0,w] -> w^-al FI(th,-al)(w)",
        lambda ps: 1 - ps[1] > abs(ps[0]),
        lambda w: _off_cut(w, ("le", 0.0)),
        a(lambda w: ("seg", 0.0, w), 1, -1),
        lambda ps, w: jpow(w, -ps[1]) * N.FI_1f1(ps[0], -ps[1], w),
        (0.5, 0.4 + 0.6j, 1 + 0.3j))

    row(3, "[w,0] -> (-w)^-al FI(th,-al)(w)",
        lambda ps: 1 - ps[1] > abs(ps[0]),
        lambda w: _off_cut(w, ("ge", 0.0)),
        a(lambda w: ("seg", w, 0.0), -1, 1),
        lambda ps, w: jpow(-w, -ps[1]) * N.FI_1f1(ps[0], -ps[1], w),
        (-0.5, -0.4 + 0.6j, -1 + 0.5j))

    row(4, "(-inf,0] Laplace -> w^((-1-th-al)/2) tilde-FI(th,al)(-1/w)",
        lambda ps: 1 + ps[0] - ps[1] > 0,
        lambda w: _off_cut(w, ("le", 0.0)),
        a(lambda w: ("ray", 0.0, -1.0), -1, -1),
        lambda ps, w: gamma((1 + ps[0] - ps[1]) / 2)
        * N._tricomi_series(ps[0], ps[1], w)[0],
        (0.8, 1.5 + 1j, 0.5 + 0.5j))

    row(5, "(-inf,w] Laplace -> e^w (-w)^((-1+th-al)/2) tilde-FI(-th,al)(1/w)",
        lambda ps: 1 - ps[0] - ps[1] > 0,
        lambda w: _off_cut(w, ("ge", 0.0)),
        a(lambda w: ("ray", w, -1.0), -1, -1),
        lambda ps, w: gamma((1 - ps[0] - ps[1]) / 2)
        * cmath.exp(w) * N._tricomi_series(-ps[0], ps[1], -w)[0],
        (-0.8, -1 + 1j, -0.5 + 0.5j))

    row(6, "[1,inf) -> FI(th,al)(w)",
        lambda ps: 1 + ps[1] > abs(ps[0]),
        lambda w: True,
        b(lambda w: ("ray", 1.0, 1.0), 1, 1),
        lambda ps, w: N.FI_1f1(ps[0], ps[1], w),
        (0.7, -1 + 1j, 2 + 0.5j))

    def ev7(params, w, tol):
        _, (et, e1), _ = _conf_b(params, w)
        val, err = loop_0(lambda t: w / t + e1 * cmath.log(1 - t),
                          et, 0.7, 0.0, tol)
        return val / (2j * math.pi), err / (2 * math.pi)

    row(7, "keyhole (0-0)^+ -> w^-al bold-F(th,-al)(w)",
        lambda ps: True,
        lambda w: w.real > 0 and abs(w) < 0.5,
        ev7,
        lambda ps, w: jpow(w, -ps[1]) * N.bold_F_1f1(ps[0], -ps[1], w),
        (0.3, 0.25 + 0.2j, 0.4 + 0.1j))

    row(8, "(-inf,0] -> w^((-1-th-al)/2) tilde-FI(th,-al)(-1/w)",
        lambda ps: 1 + ps[0] + ps[1] > 0,
        lambda w: w.real > 0,
        b(lambda w: ("ray", 0.0, -1.0), -1, -1),
        lambda ps, w: gamma((1 + ps[0] + ps[1]) / 2)
        * N._tricomi_series(ps[0], ps[1], w)[0],
        (0.8, 1.5 + 1j, 0.5 + 0.5j))

    row(9, "[0,1] -> e^w (-w)^((-1+th-al)/2) tilde-FI(-th,-al)(1/w)",
        lambda ps: 1 - ps[0] + ps[1] > 0,
        lambda w: w.real < 0,
        b(lambda w: ("seg", 0.0, 1.0), 1, -1),
        lambda ps, w: gamma((1 - ps[0] + ps[1]) / 2)
        * cmath.exp(w) * N._tricomi_series(-ps[0], ps[1], -w)[0],
        (-0.8, -1.5 + 1j, -0.5 + 0.5j))

    return tuple(rows)


# ---- Hermite rows ---------------------------------------------------------

def _herm_a(ps, w):
    """e^{t^2} (w-t)^{-la-1/2}: point w."""
    (la,) = ps
    return (w,), (-la - 0.5,), lambda t: t * t


def _herm_b(ps, w):
    """e^{-t^2-2tw} t^{la-1/2}: point 0."""
    (la,) = ps
    return (0.0,), (la - 0.5,), lambda t: -t * t - 2 * t * w


_HERM_PARAM_SAMPLES = ((2 / 7,), (-1 / 7,), (5 / 13,))


def _build_herm_rows():
    rows = []
    row = _row_adder(rows, "herm", "hermite", _HERM_PARAM_SAMPLES)
    a = functools.partial(_power_row, _herm_a)

    def ev1(params, w, tol):
        # upward along Re t = x0, cut where Re t^2 = -45
        points, exps, extra = _herm_a(params, w)
        x0 = min(w.real - 1.0, 0.5)
        y = math.sqrt(45.0 + x0 * x0)
        val, err = power_integral(("seg", complex(x0, -y), complex(x0, y)),
                                  tuple(zip((-1,), points, exps)), tol, extra)
        return -1j * val, err

    row(1, "vertical line left of w of e^{t^2}(w-t)^{-la-1/2} -> sqrt(pi) S_la(w)",
        lambda ps: True,
        lambda w: _off_cut(w, ("le", 0.0)),
        ev1,
        lambda ps, w: SQRT_PI * N.eval_hermite_S(ps[0], w),
        (5 + 1j, 4.5 + 2j, 6 + 0.5j))

    row(2, "[w, i inf) of e^{t^2}(-i(t-w))^{-la-1/2} -> e^{w^2} S^I_{-la}(-iw)",
        lambda ps: ps[0] < 0.5,
        lambda w: _off_cut(w, ("ge", 0.0)),
        a(lambda w: ("ray", w, 1j), -1j),
        lambda ps, w: cmath.exp(w * w)
        * 2 ** (ps[0] - 0.5) * gamma(0.5 - ps[0])
        * N.eval_hermite_S(-ps[0], -1j * w),
        (-3 + 4.5j, 2 + 5j, -5 + 2.5j))

    row(3, "[0,inf) of e^{-t^2-2tw} t^{la-1/2} -> S^I_la(w)",
        lambda ps: ps[0] > -0.5,
        lambda w: _off_cut(w, ("le", 0.0)),
        _power_row(_herm_b, lambda w: ("ray", 0.0, 1.0), 1),
        lambda ps, w: 2 ** (-ps[0] - 0.5) * gamma(ps[0] + 0.5)
        * N.eval_hermite_S(ps[0], w),
        (5 + 1j, 4.7 + 2j, 6 + 0.5j))

    def ev4(params, w, tol):
        # below 0 by -X -> -i/2 -> X: the cut of (it)^{la-1/2} is the
        # positive imaginary axis, so principal branches serve
        points, (g,), extra = _herm_b(params, w)
        factors = ((1j, points[0], g),)     # (it)^{la-1/2}
        X = math.sqrt(45.0) + 2 * abs(w)
        (left, e1), (right, e2) = (
            power_integral(("seg", a, b), factors, tol, extra)
            for a, b in ((-X, -0.5j), (-0.5j, X)))
        return left + right, e1 + e2

    row(4, "real axis bypassing 0 below of e^{-t^2-2tw}(it)^{la-1/2} "
           "-> sqrt(pi) e^{w^2} S_{-la}(-iw)",
        lambda ps: True,
        lambda w: _off_cut(w, ("ge", 0.0)),
        ev4,
        lambda ps, w: SQRT_PI * cmath.exp(w * w)
        * N.eval_hermite_S(-ps[0], -1j * w),
        (-5 + 0.3j, -4.6 - 0.4j, -6 + 0.5j))

    return tuple(rows)


# ---- 0F1 rows -------------------------------------------------------------

def _bessel_0f1(ps, w):
    """e^t e^{w/t} t^{-al-1}: point 0."""
    (al,) = ps
    return (0.0,), (-al - 1,), lambda t: t + w / t


def _poisson(ps, w):
    """Poisson's (1-t^2)^{al-1/2} e^{2t sqrt w}: points 1, -1."""
    (al,) = ps
    sq = cmath.sqrt(w)
    return (1.0, -1.0), (al - 0.5, al - 0.5), lambda t: 2 * t * sq


def _poisson_w(ps, w):
    """Poisson's integrand with t scaled by sqrt w,
    (w-t^2)^{-al-1/2} e^{2t}: points sqrt w, -sqrt w."""
    (al,) = ps
    sq = cmath.sqrt(w)
    return (sq, -sq), (-al - 0.5, -al - 0.5), lambda t: 2 * t


_0F1_PARAM_SAMPLES = ((2 / 7,), (-3 / 13,), (1 / 11,))


def _build_0f1_rows():
    rows = []
    row = _row_adder(rows, "0f1", "0f1", _0F1_PARAM_SAMPLES)
    poisson = functools.partial(_power_row, _poisson)
    poisson_w = functools.partial(_power_row, _poisson_w)

    def ev1(params, w, tol):
        _, (gam,), extra = _bessel_0f1(params, w)
        val, err = loop_0(extra, gam, max(1.0, abs(w)), 40.0 + abs(w), tol)
        return val / (2j * math.pi), err / (2 * math.pi)

    row(1, "double ray around 0 of e^t e^{w/t} t^{-al-1} / 2 pi i "
           "-> bold-F_al(w)",
        lambda ps: True,
        lambda w: w.real > 0,
        ev1,
        lambda ps, w: N.bold_F_0f1(ps[0], w),
        (0.5, 1 + 0.8j, 2 + 0.5j))

    def ev2(params, w, tol):
        _, (gam,), extra = _bessel_0f1(params, w)
        val, err = loop_0(extra, gam, max(1.0, abs(w)), 0.0, tol)
        return val / (2j * math.pi), err / (2 * math.pi)

    row(2, "keyhole (0-0)^+ of e^t e^{w/t} t^{-al-1} / 2 pi i "
           "-> w^-al bold-F_{-al}(w)",
        lambda ps: True,
        lambda w: w.real > 0,
        ev2,
        lambda ps, w: jpow(w, -ps[0]) * N.bold_F_0f1(-ps[0], w),
        (0.5, 1 + 0.8j, 2 + 0.5j))

    row(3, "(-inf,0] of e^t e^{w/t}(-t)^{-al-1} -> sqrt(pi) tilde-F_al(w)",
        lambda ps: True,
        lambda w: w.real > 0,
        _power_row(_bessel_0f1, lambda w: ("ray", 0.0, -1.0), -1),
        lambda ps, w: SQRT_PI * N._0f1_tilde_series(ps[0], w)[0],
        (0.5, 1 + 0.5j, 2))

    row(4, "Poisson [-1,1] -> Gamma(al+1/2) sqrt(pi) bold-F_al(w)",
        lambda ps: ps[0] > -0.5,
        lambda w: _off_cut(w, ("le", 0.0)),
        poisson(lambda w: ("seg", -1.0, 1.0), -1, 1),
        lambda ps, w: gamma(ps[0] + 0.5) * SQRT_PI * N.bold_F_0f1(ps[0], w),
        (0.4, 1 + 1j, 2 + 0.5j))

    row(5, "Poisson [-sqrt w, sqrt w] -> Gamma(-al+1/2) sqrt(pi) w^-al "
           "bold-F_{-al}(w)",
        lambda ps: ps[0] < 0.5,
        lambda w: _off_cut(w, ("le", 0.0)),
        poisson_w(lambda w: ("seg", -cmath.sqrt(w), cmath.sqrt(w)), -1, 1),
        lambda ps, w: gamma(-ps[0] + 0.5) * SQRT_PI * jpow(w, -ps[0])
        * N.bold_F_0f1(-ps[0], w),
        (0.4, 1 + 1j, 2 + 0.5j))

    row(6, "Poisson (-inf,-1] -> (1/2) Gamma(al+1/2) tilde-F_al(w)",
        lambda ps: ps[0] > -0.5,
        lambda w: _off_cut(w, ("le", 0.0)),
        poisson(lambda w: ("ray", -1.0, -1.0), -1, -1),
        lambda ps, w: 0.5 * gamma(ps[0] + 0.5)
        * N._0f1_tilde_series(ps[0], w)[0],
        (0.4, 1 + 1j, 2 + 0.5j))

    row(7, "Poisson (-inf,-sqrt w] -> (1/2) Gamma(-al+1/2) tilde-F_al(w)",
        lambda ps: ps[0] < 0.5,
        lambda w: _off_cut(w, ("le", 0.0)),
        poisson_w(lambda w: ("ray", -cmath.sqrt(w), -1.0), -1, -1),
        lambda ps, w: 0.5 * gamma(-ps[0] + 0.5)
        * N._0f1_tilde_series(ps[0], w)[0],
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
