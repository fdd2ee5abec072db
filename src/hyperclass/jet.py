"""Truncated complex Taylor jets.

A `Jet` carries a function's value and its first few Taylor coefficients
at one point.  `numerics` builds the jets of its functions from scalar
values (`taylor_compose`) and composes them with elementary functions,
without loading the exact operator algebra; `exactalg.jet_apply` applies
an exact operator to one.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

DEFAULT_JET_ORDER = 4


class Jet:
    """Truncated complex Taylor expansion c0 + c1 (z-z0) + ... + cK (z-z0)^K.

    The center and every coefficient are always ``complex``.  The public
    constructor coerces its arguments; the jets that Jet's own methods build
    go through `_jet`, which relies on this and skips the coercion.

    A scalar operand of ``+ - * /`` acts on the coefficients directly (Taylor
    mode: it shifts the constant term or scales every coefficient), with the
    rounding, down to the sign of a zero part, of lifting the scalar to a
    constant jet and applying the jet-by-jet operation.
    """

    __slots__ = ("center", "coeffs")

    def __init__(self, center: complex, coeffs: Sequence[complex]):
        object.__setattr__(self, "center", complex(center))
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def variable(z0: complex, order: int = DEFAULT_JET_ORDER) -> "Jet":
        cs = [complex(z0), 1.0] + [0.0] * (order - 1)
        return Jet(z0, cs[: order + 1])

    @staticmethod
    def constant(c: complex, z0: complex, order: int = DEFAULT_JET_ORDER) -> "Jet":
        return _jet(complex(z0), (complex(c),) + (0j,) * order)

    def _operand(self, other: "Jet") -> tuple:
        if (other.center != self.center
                or len(other.coeffs) != len(self.coeffs)):
            raise ValueError("jet center/order mismatch")
        return other.coeffs

    def _lifted(self, s: complex) -> tuple:
        """Coefficients of the constant jet s at this center and order."""
        return (s,) + (0j,) * (len(self.coeffs) - 1)

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        c = self.coeffs
        if isinstance(other, Jet):
            return _jet(self.center,
                        [a + b for a, b in zip(c, self._operand(other))])
        return _jet(self.center,
                    [c[0] + complex(other)] + [a + 0j for a in c[1:]])

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.center, [-a for a in self.coeffs])

    def __sub__(self, other):
        c = self.coeffs
        if isinstance(other, Jet):
            return _jet(self.center,
                        [a + (-b) for a, b in zip(c, self._operand(other))])
        return _jet(self.center,
                    [c[0] + (-complex(other))] + [a + -0j for a in c[1:]])

    def __rsub__(self, other):
        c = self.coeffs
        return _jet(self.center,
                    [complex(other) + (-c[0])] + [0j + (-a) for a in c[1:]])

    def __mul__(self, other):
        if isinstance(other, Jet):
            return _jet(self.center,
                        _jet_mul(self.coeffs, self._operand(other)))
        return _jet(self.center, _jet_scale(self.coeffs, complex(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return _jet(self.center,
                        _jet_div(self.coeffs, self._operand(other)))
        s = complex(other)
        if s == 0:
            raise ZeroDivisionError("jet division by zero constant term")
        inv0 = 1.0 / s
        # The recurrence gives (c_k - 0*out[k-1] - ... - 0*out[0]) * inv0;
        # the signed zeros drop out when all is finite, unless c_k has a
        # -0.0 part, which they may turn into +0.0.
        out = [a * inv0 for a in self.coeffs]
        if not cmath.isfinite(sum(out)) or any(
                map(_has_negative_zero, self.coeffs[1:])):
            out = _jet_div(self.coeffs, self._lifted(s))
        return _jet(self.center, out)

    def __rtruediv__(self, other):
        return _jet(self.center,
                    _jet_div(self._lifted(complex(other)), self.coeffs))

    # -- analytic functions ------------------------------------------------
    def exp(self) -> "Jet":
        n = self.order
        out = [cmath.exp(self.coeffs[0])] + [0j] * n
        for k in range(1, n + 1):
            s = 0j
            for j in range(1, k + 1):
                s += j * self.coeffs[j] * out[k - j]
            out[k] = s / k
        return _jet(self.center, out)

    def log(self) -> "Jet":
        if self.coeffs[0] == 0:
            raise ValueError("jet log at zero")
        n = self.order
        out = [cmath.log(self.coeffs[0])] + [0j] * n
        for k in range(1, n + 1):
            s = k * self.coeffs[k]
            for j in range(1, k):
                s -= j * out[j] * self.coeffs[k - j]
            out[k] = s / (k * self.coeffs[0])
        return _jet(self.center, out)

    def pow(self, e: complex) -> "Jet":
        """Principal-branch complex power.

        An integer e multiplies out.  Any other e takes one pass of the
        power recurrence x y' = e x' y for y = x^e (Griewank & Walther,
        *Evaluating Derivatives*, 2nd ed., ch. 13): y_0 = exp(e log x_0),
        y_k = sum_{j=1..k} ((e+1) j - k) x_j y_{k-j} / (k x_0).  Zero x_j
        are skipped, so a linear jet costs O(order).
        """
        if isinstance(e, int):
            if e >= 0:
                out = Jet.constant(1.0, self.center, self.order)
                for _ in range(e):
                    out = out * self
                return out
            return 1.0 / self.pow(-e)
        x = self.coeffs
        x0 = x[0]
        if x0 == 0:
            raise ValueError("jet log at zero")
        e = complex(e)
        e1 = e + 1.0
        out = [cmath.exp(e * cmath.log(x0))]
        terms = [(j, xj) for j, xj in enumerate(x) if j and xj != 0]
        for k in range(1, len(x)):
            s = 0j
            for j, xj in terms:
                if j > k:
                    break
                s += (e1 * j - k) * xj * out[k - j]
            out.append(s / (k * x0))
        return _jet(self.center, out)

    def sqrt(self) -> "Jet":
        return self.pow(0.5)

    def deriv(self) -> "Jet":
        """Jet of the derivative (one order lower, padded with 0)."""
        n = self.order
        out = [(k + 1) * self.coeffs[k + 1] for k in range(n)]
        out.append(0j)
        return _jet(self.center, out)

    def derivative_value(self, k: int) -> complex:
        """f^{(k)} at the center."""
        if k > self.order:
            raise ValueError("jet order too low for requested derivative")
        return self.coeffs[k] * math.factorial(k)

    def value(self) -> complex:
        return self.coeffs[0]

    def __repr__(self):
        return f"Jet(center={self.center}, coeffs={list(self.coeffs)})"


_new_object = object.__new__
_set_center = Jet.center.__set__
_set_coeffs = Jet.coeffs.__set__


def _jet(center: complex, coeffs) -> Jet:
    """Jet from a complex center and complex coefficients, not coerced."""
    j = _new_object(Jet)
    _set_center(j, center)
    _set_coeffs(j, tuple(coeffs))
    return j


def taylor_compose(cs, z: Jet) -> Jet:
    """The jet of sum_k cs[k] (x - z0)^k at x = z, z0 the value of z and
    cs one coefficient per order of z: Horner in z - z0, whose
    coefficients are (0, z_1, ..., z_K), skipping the zero ones."""
    dz = [(j, zj) for j, zj in enumerate(z.coeffs) if j and zj != 0]
    out = [cs[-1]] + [0j] * (len(cs) - 1)
    for c in reversed(cs[:-1]):
        out = [c] + [sum((zj * out[k - j] for j, zj in dz if j <= k), 0j)
                     for k in range(1, len(cs))]
    return _jet(z.center, out)


def _jet_mul(x: tuple, y: tuple) -> list:
    """Truncated product of two coefficient tuples of one length."""
    n = len(x)
    out = [0j] * n
    for i, a in enumerate(x):
        if a == 0:
            continue
        for j in range(n - i):
            out[i + j] += a * y[j]
    return out


def _jet_scale(x: tuple, s: complex) -> list:
    """Coefficient tuple x times the scalar s, rounded as the product with
    the constant jet (s, 0, ..., 0)."""
    # Convolving with (s, 0, ..., 0) gives 0j + a_0*0 + ... + a_k*s at
    # index k; the signed zeros a_i*0 drop out when all is finite.
    out = [a * s + 0j for a in x]
    if not cmath.isfinite(sum(out)):
        out = _jet_mul(x, (s,) + (0j,) * (len(x) - 1))
    return out


def _jet_div(x: tuple, y: tuple) -> list:
    """Truncated quotient x / y of two coefficient tuples of one length."""
    if y[0] == 0:
        raise ZeroDivisionError("jet division by zero constant term")
    out = [0j] * len(x)
    inv0 = 1.0 / y[0]
    for k in range(len(x)):
        s = x[k]
        for j in range(1, k + 1):
            s -= y[j] * out[k - j]
        out[k] = s * inv0
    return out


def _has_negative_zero(a: complex) -> bool:
    return ((a.real == 0.0 and math.copysign(1.0, a.real) < 0.0)
            or (a.imag == 0.0 and math.copysign(1.0, a.imag) < 0.0))
