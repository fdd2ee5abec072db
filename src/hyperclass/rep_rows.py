"""Every printed integral representation, as a row that
`quadrature.integral_rep_rows` returns.  A row's id and paper location are
its entry of `tables.INTEGRAL_REPS`, which `families` lists without
loading this module.  Each family states its integrands once, as the
points p_j, exponents g_j and the exponent extra of
prod (c_j (t - p_j))^{g_j} e^{extra(t)}; every extra factor of the catalog
is an exponential.  An integrand is one exponential a node,
exp(extra(t) + sum g_j log(c_j (t - p_j))), and an exact 0 where that
exponent's real part is below -700.  A row takes one of them over one contour, with the signs c_j
that pick the branches there: `power_integral` sends a segment to
`segment_power_integrand` and `tanh_sinh`, a ray to `ray_power_integrand`
and `exp_sinh`.  The Hankel loop around 0 and w (1f1:int:01) is three such
pieces: rays from -inf below and above both points, joined by a segment
right of them.  The keyhole and double-ray rows (1f1:int:07, 0f1:int:01,
0f1:int:02) are `loop_0` contours, and the real axis bypassing 0 below
(herm:int:04) is two segments through -i/2.  Each row also carries its
parameter constraint, admissible domain and an expected value computed
independently from series/connection formulas in `numerics`.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable, NamedTuple

from . import numerics as N
from .numerics import gamma, jpow, jsqrt
from .quadrature import SQRT_PI, loop_0, power_integral
from .tables import INTEGRAL_REPS


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


def _row_adder(rows: list, family: str, param_samples):
    """row(i, constraint, domain, ev, exp, ws) appends the RepRow of the
    family's i-th entry of `tables.INTEGRAL_REPS`, with its id and
    location, sampled at every parameter sample times every w in ws."""

    def row(i, constraint, domain, ev, exp, ws):
        samples = tuple((ps, w) for ps in param_samples for w in ws)
        rid, desc = INTEGRAL_REPS[family][i - 1]
        rows.append(RepRow(rid, family, desc, constraint, domain, ev, exp,
                           samples))

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
    row = _row_adder(rows, "2f1", _2F1_PARAM_SAMPLES)
    euler = functools.partial(_power_row, _euler_2f1)

    row(1, lambda ps: (1 + ps[0]) > abs(ps[1] - ps[2]),
        lambda w: _off_cut(w, ("ge", 1.0)),
        euler(lambda w: ("ray", 1.0, 1.0), 1, 1, 1),
        lambda ps, w: N.FI_2f1(ps[0], ps[1], ps[2], w),
        (0.3 + 0.4j, -0.5 + 0.2j, 0.4))

    row(2, lambda ps: (1 - ps[0]) > abs(ps[1] + ps[2]),
        lambda w: _off_cut(w, ("le", 0.0), ("ge", 1.0)),
        euler(lambda w: ("seg", 0.0, w), 1, -1, -1),
        lambda ps, w: jpow(w, -ps[0]) * N.FI_2f1(-ps[0], ps[1], -ps[2], w),
        (0.3 + 0.4j, 0.6 + 0.1j, 0.5))

    row(3, lambda ps: (1 - ps[0]) > abs(ps[1] + ps[2]),
        lambda w: _off_cut(w, ("ge", 0.0)),
        euler(lambda w: ("seg", w, 0.0), -1, -1, 1),
        lambda ps, w: jpow(-w, -ps[0]) * N.FI_2f1(-ps[0], ps[1], -ps[2], w),
        (-0.5, -0.3 + 0.5j, -1.2 + 0.4j))

    row(4, lambda ps: (1 + ps[1]) > abs(ps[0] - ps[2]),
        lambda w: _off_cut(w, ("le", 0.0)),
        euler(lambda w: ("ray", 0.0, -1.0), -1, -1, -1),
        lambda ps, w: N.FI_2f1(ps[1], ps[0], ps[2], 1 - w),
        (0.4 + 0.3j, 2 + 1j, 0.7))

    row(5, lambda ps: (1 - ps[1]) > abs(ps[0] + ps[2]),
        lambda w: _off_cut(w, ("le", 0.0), ("ge", 1.0)),
        euler(lambda w: ("seg", w, 1.0), 1, -1, 1),
        lambda ps, w: jpow(1 - w, -ps[1])
        * N.FI_2f1(-ps[1], ps[0], -ps[2], 1 - w),
        (0.3 + 0.2j, 0.5, 0.7 + 0.1j))

    row(6, lambda ps: (1 - ps[1]) > abs(ps[0] + ps[2]),
        lambda w: _off_cut(w, ("le", 1.0)),
        euler(lambda w: ("seg", 1.0, w), 1, 1, -1),
        lambda ps, w: jpow(w - 1, -ps[1])
        * N.FI_2f1(-ps[1], ps[0], -ps[2], 1 - w),
        (1.5 + 0.5j, 2 + 1j, 1.2 + 0.3j))

    row(7, lambda ps: (1 - ps[2]) > abs(ps[0] + ps[1]),
        lambda w: _off_cut(w, ("le", 1.0)),
        euler(lambda w: ("ray", w, 1.0), 1, 1, 1),
        lambda ps, w: jpow(w, (-1 - ps[0] - ps[1] + ps[2]) / 2)
        * N.FI_2f1(-ps[2], ps[1], -ps[0], 1 / w),
        (1.5 + 0.5j, 3 + 1j, 2.5))

    row(8, lambda ps: (1 - ps[2]) > abs(ps[0] + ps[1]),
        lambda w: _off_cut(w, ("ge", 0.0)),
        euler(lambda w: ("ray", w, -1.0), -1, -1, -1),
        lambda ps, w: jpow(-w, (-1 - ps[0] - ps[1] + ps[2]) / 2)
        * N.FI_2f1(-ps[2], ps[1], -ps[0], 1 / w),
        (-0.5, -1 + 0.5j, -0.3 + 0.8j))

    row(9, lambda ps: (1 + ps[2]) > abs(ps[0] - ps[1]),
        lambda w: _off_cut(w, ("ge", 0.0)),
        euler(lambda w: ("seg", 0.0, 1.0), 1, -1, 1),
        lambda ps, w: jpow(-w, (-1 - ps[0] - ps[1] - ps[2]) / 2)
        * N.FI_2f1(ps[2], ps[1], ps[0], 1 / w),
        (-0.5, -1 + 0.5j, -0.3 + 0.8j))

    row(10, lambda ps: (1 + ps[2]) > abs(ps[0] - ps[1]),
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
    row = _row_adder(rows, "gegenbauer", _GEG_PARAM_SAMPLES)
    a = functools.partial(_power_row, _geg_a)
    b_plus = functools.partial(_power_row, _geg_b(1))
    b_minus = functools.partial(_power_row, _geg_b(-1))

    row(1, lambda ps: 0.5 > ps[1] > -0.5 - ps[0],
        lambda w: _off_cut(w, ("le", -1.0)),
        a(lambda w: ("ray", -1.0, -1.0), -1, -1, -1),
        lambda ps, w: N.SI_geg(ps[0], ps[1], w),
        (0.5 + 0.5j, 2 + 1j, -0.3 + 0.6j))

    row(2, lambda ps: 0.5 > ps[1] > -0.5 + ps[0],
        lambda w: _off_cut(w, ("le", -1.0), ("ge", 1.0)) and w.imag != 0,
        a(lambda w: ("seg", w, 1.0), -1, 1, 1),
        lambda ps, w: jpow(1 - w * w, -ps[0]) * N.SI_geg(-ps[0], ps[1], w),
        (0.3 + 0.4j, -0.5 + 0.3j, 0.6 - 0.2j))

    row(3, lambda ps: 0.5 > ps[1],
        lambda w: _off_cut(w, ("le", 1.0)),
        a(lambda w: ("seg", -1.0, 1.0), -1, 1, -1),
        lambda ps, w: jpow(w * w - 1, (-1 - 2 * ps[0] + 2 * ps[1]) / 4)
        * N.S0_geg(-ps[1], ps[0], w / jsqrt(w * w - 1)),
        (1.5 + 0.8j, 2 + 0.5j, 2.5))

    row(4, lambda ps: ps[1] + 0.5 > abs(ps[0]),
        lambda w: _off_cut(w, ("le", 1.0)),
        a(lambda w: ("ray", w, 1.0), 1, 1, 1),
        lambda ps, w: jpow(w * w - 1, (-1 - 2 * ps[0] - 2 * ps[1]) / 4)
        * N.SII_geg(ps[1], ps[0], w / jsqrt(w * w - 1)),
        (1.5 + 0.8j, 2 + 0.5j, 2.5))

    row(5, lambda ps: ps[0] + 0.5 > abs(ps[1]),
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

    row(6, lambda ps: 0.5 > ps[0],
        _b2_domain,
        b_plus(_between_roots, 1, 1, -1),
        lambda ps, w: 1j * jpow(1 - w * w, -ps[0])
        * N.S0_geg(-ps[0], -ps[1], w),
        (0.3 + 0.2j, 0.2 - 0.3j, 0.5 + 0.6j))

    row(7, lambda ps: (-ps[1] + 0.5 > -ps[0]) and (-ps[0] > -0.5),
        lambda w: _off_cut(w, ("le", 1.0)),
        b_minus(lambda w: ("seg", _geg_roots(w)[0], 0.0), 1, 1, -1),
        lambda ps, w: jpow(w * w - 1, (-1 - 2 * ps[0] + 2 * ps[1]) / 4)
        * N.SI_geg(-ps[1], ps[0], w / jsqrt(w * w - 1)),
        (1.5 + 0.8j, 2 + 0.5j, 2.5 + 1j))

    row(8, lambda ps: (ps[1] + 0.5 > -ps[0]) and (-ps[0] > -0.5),
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
    row = _row_adder(rows, "1f1", _CONF_PARAM_SAMPLES)
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

    row(1, lambda ps: True,
        lambda w: w.imag != 0,
        ev1,
        lambda ps, w: N.bold_F_1f1(ps[0], ps[1], w),
        (0.5 + 0.8j, 1 + 1j, -0.6 + 0.7j))

    row(2, lambda ps: 1 - ps[1] > abs(ps[0]),
        lambda w: _off_cut(w, ("le", 0.0)),
        a(lambda w: ("seg", 0.0, w), 1, -1),
        lambda ps, w: jpow(w, -ps[1]) * N.FI_1f1(ps[0], -ps[1], w),
        (0.5, 0.4 + 0.6j, 1 + 0.3j))

    row(3, lambda ps: 1 - ps[1] > abs(ps[0]),
        lambda w: _off_cut(w, ("ge", 0.0)),
        a(lambda w: ("seg", w, 0.0), -1, 1),
        lambda ps, w: jpow(-w, -ps[1]) * N.FI_1f1(ps[0], -ps[1], w),
        (-0.5, -0.4 + 0.6j, -1 + 0.5j))

    row(4, lambda ps: 1 + ps[0] - ps[1] > 0,
        lambda w: _off_cut(w, ("le", 0.0)),
        a(lambda w: ("ray", 0.0, -1.0), -1, -1),
        lambda ps, w: gamma((1 + ps[0] - ps[1]) / 2)
        * N._tricomi_series(ps[0], ps[1], w)[0],
        (0.8, 1.5 + 1j, 0.5 + 0.5j))

    row(5, lambda ps: 1 - ps[0] - ps[1] > 0,
        lambda w: _off_cut(w, ("ge", 0.0)),
        a(lambda w: ("ray", w, -1.0), -1, -1),
        lambda ps, w: gamma((1 - ps[0] - ps[1]) / 2)
        * cmath.exp(w) * N._tricomi_series(-ps[0], ps[1], -w)[0],
        (-0.8, -1 + 1j, -0.5 + 0.5j))

    row(6, lambda ps: 1 + ps[1] > abs(ps[0]),
        lambda w: True,
        b(lambda w: ("ray", 1.0, 1.0), 1, 1),
        lambda ps, w: N.FI_1f1(ps[0], ps[1], w),
        (0.7, -1 + 1j, 2 + 0.5j))

    def ev7(params, w, tol):
        _, (et, e1), _ = _conf_b(params, w)
        val, err = loop_0(lambda t: w / t + e1 * cmath.log(1 - t),
                          et, 0.7, 0.0, tol)
        return val / (2j * math.pi), err / (2 * math.pi)

    row(7, lambda ps: True,
        lambda w: w.real > 0 and abs(w) < 0.5,
        ev7,
        lambda ps, w: jpow(w, -ps[1]) * N.bold_F_1f1(ps[0], -ps[1], w),
        (0.3, 0.25 + 0.2j, 0.4 + 0.1j))

    row(8, lambda ps: 1 + ps[0] + ps[1] > 0,
        lambda w: w.real > 0,
        b(lambda w: ("ray", 0.0, -1.0), -1, -1),
        lambda ps, w: gamma((1 + ps[0] + ps[1]) / 2)
        * N._tricomi_series(ps[0], ps[1], w)[0],
        (0.8, 1.5 + 1j, 0.5 + 0.5j))

    row(9, lambda ps: 1 - ps[0] + ps[1] > 0,
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
    row = _row_adder(rows, "hermite", _HERM_PARAM_SAMPLES)
    a = functools.partial(_power_row, _herm_a)

    def ev1(params, w, tol):
        # upward along Re t = x0, cut where Re t^2 = -45
        points, exps, extra = _herm_a(params, w)
        x0 = min(w.real - 1.0, 0.5)
        y = math.sqrt(45.0 + x0 * x0)
        val, err = power_integral(("seg", complex(x0, -y), complex(x0, y)),
                                  tuple(zip((-1,), points, exps)), tol, extra)
        return -1j * val, err

    row(1, lambda ps: True,
        lambda w: _off_cut(w, ("le", 0.0)),
        ev1,
        lambda ps, w: SQRT_PI * N.eval_hermite_S(ps[0], w),
        (5 + 1j, 4.5 + 2j, 6 + 0.5j))

    row(2, lambda ps: ps[0] < 0.5,
        lambda w: _off_cut(w, ("ge", 0.0)),
        a(lambda w: ("ray", w, 1j), -1j),
        lambda ps, w: cmath.exp(w * w)
        * 2 ** (ps[0] - 0.5) * gamma(0.5 - ps[0])
        * N.eval_hermite_S(-ps[0], -1j * w),
        (-3 + 4.5j, 2 + 5j, -5 + 2.5j))

    row(3, lambda ps: ps[0] > -0.5,
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

    row(4, lambda ps: True,
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
    row = _row_adder(rows, "0f1", _0F1_PARAM_SAMPLES)
    poisson = functools.partial(_power_row, _poisson)
    poisson_w = functools.partial(_power_row, _poisson_w)

    def ev1(params, w, tol):
        _, (gam,), extra = _bessel_0f1(params, w)
        val, err = loop_0(extra, gam, max(1.0, abs(w)), 40.0 + abs(w), tol)
        return val / (2j * math.pi), err / (2 * math.pi)

    row(1, lambda ps: True,
        lambda w: w.real > 0,
        ev1,
        lambda ps, w: N.bold_F_0f1(ps[0], w),
        (0.5, 1 + 0.8j, 2 + 0.5j))

    def ev2(params, w, tol):
        _, (gam,), extra = _bessel_0f1(params, w)
        val, err = loop_0(extra, gam, max(1.0, abs(w)), 0.0, tol)
        return val / (2j * math.pi), err / (2 * math.pi)

    row(2, lambda ps: True,
        lambda w: w.real > 0,
        ev2,
        lambda ps, w: jpow(w, -ps[0]) * N.bold_F_0f1(-ps[0], w),
        (0.5, 1 + 0.8j, 2 + 0.5j))

    row(3, lambda ps: True,
        lambda w: w.real > 0,
        _power_row(_bessel_0f1, lambda w: ("ray", 0.0, -1.0), -1),
        lambda ps, w: SQRT_PI * N._0f1_tilde_series(ps[0], w)[0],
        (0.5, 1 + 0.5j, 2))

    row(4, lambda ps: ps[0] > -0.5,
        lambda w: _off_cut(w, ("le", 0.0)),
        poisson(lambda w: ("seg", -1.0, 1.0), -1, 1),
        lambda ps, w: gamma(ps[0] + 0.5) * SQRT_PI * N.bold_F_0f1(ps[0], w),
        (0.4, 1 + 1j, 2 + 0.5j))

    row(5, lambda ps: ps[0] < 0.5,
        lambda w: _off_cut(w, ("le", 0.0)),
        poisson_w(lambda w: ("seg", -cmath.sqrt(w), cmath.sqrt(w)), -1, 1),
        lambda ps, w: gamma(-ps[0] + 0.5) * SQRT_PI * jpow(w, -ps[0])
        * N.bold_F_0f1(-ps[0], w),
        (0.4, 1 + 1j, 2 + 0.5j))

    row(6, lambda ps: ps[0] > -0.5,
        lambda w: _off_cut(w, ("le", 0.0)),
        poisson(lambda w: ("ray", -1.0, -1.0), -1, -1),
        lambda ps, w: 0.5 * gamma(ps[0] + 0.5)
        * N._0f1_tilde_series(ps[0], w)[0],
        (0.4, 1 + 1j, 2 + 0.5j))

    row(7, lambda ps: ps[0] < 0.5,
        lambda w: _off_cut(w, ("le", 0.0)),
        poisson_w(lambda w: ("ray", -cmath.sqrt(w), -1.0), -1, -1),
        lambda ps, w: 0.5 * gamma(-ps[0] + 0.5)
        * N._0f1_tilde_series(ps[0], w)[0],
        (0.4, 1 + 1j, 2 + 0.5j))

    return tuple(rows)


ROW_BUILDERS = {
    "2f1": _build_2f1_rows,
    "gegenbauer": _build_geg_rows,
    "1f1": _build_conf_rows,
    "hermite": _build_herm_rows,
    "0f1": _build_0f1_rows,
}
