"""Exact computer-algebra substrate.

Gaussian-rational numbers, multivariate polynomials over them, rational
functions, differential operators in one working variable, multiplier
conjugation, Moebius/quadratic substitution, and the numeric application
of an operator to a function given as a Taylor jet (`hyperclass.jet`).

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm
from operator import add as _add
from typing import (TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence,
                    Union)

if TYPE_CHECKING:
    from .jet import Jet

# Fixed, ordered symbol universe.  The first two are working variables, the
# rest are parameter symbols.  Exponent vectors are tuples of this length;
# a MultiPoly packs each into one int, 8 bits per symbol.
SYMBOLS: tuple[str, ...] = ("w", "v", "alpha", "beta", "mu", "theta", "lam")
NVARS = len(SYMBOLS)
_SHIFTS = tuple(8 * (NVARS - 1 - i) for i in range(NVARS))
_SHIFT = dict(zip(SYMBOLS, _SHIFTS))
_DEG = 8 * NVARS                # the total degree's field
_DEG1 = 1 << _DEG               # total degree 1
_CAP = 1 << (_DEG + 8)          # total degree 256

Rationalish = Union[int, Fraction]


# ---------------------------------------------------------------------------
# GaussRational
# ---------------------------------------------------------------------------

class GaussRational:
    """A Gaussian rational a + b*i with exact rational a, b.

    Stored as one integer triple ``(p, q, d)`` for (p + q*i)/d, with d > 0
    and gcd(p, q, d) == 1, so that equal values have equal triples and
    arithmetic needs integer operations and one gcd.  ``re`` and ``im``
    give the parts as Fractions.
    """

    __slots__ = ("_t",)

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        re = Fraction(re)
        im = Fraction(im)
        dr, di = re.denominator, im.denominator
        d = lcm(dr, di)
        # over the least common denominator the triple is already reduced
        _set_t(self, (re.numerator * (d // dr), im.numerator * (d // di), d))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    @property
    def re(self) -> Fraction:
        p, _, d = self._t
        return Fraction(p, d)

    @property
    def im(self) -> Fraction:
        _, q, d = self._t
        return Fraction(q, d)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def of(x: Union["GaussRational", Rationalish]) -> "GaussRational":
        if isinstance(x, GaussRational):
            return x
        return GaussRational(x)

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        t = self._t
        return t[0] == 0 and t[1] == 0

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        p1, q1, d1 = self._t
        p2, q2, d2 = _triple(other)
        return _gr(p1 * d2 + p2 * d1, q1 * d2 + q2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        p, q, d = self._t
        return _gr(-p, -q, d)

    def __sub__(self, other):
        p1, q1, d1 = self._t
        p2, q2, d2 = _triple(other)
        return _gr(p1 * d2 - p2 * d1, q1 * d2 - q2 * d1, d1 * d2)

    def __rsub__(self, other):
        return GaussRational.of(other) - self

    def __mul__(self, other):
        p1, q1, d1 = self._t
        p2, q2, d2 = _triple(other)
        return _gr(p1 * p2 - q1 * q2, p1 * q2 + q1 * p2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p1, q1, d1 = self._t
        p2, q2, d2 = _triple(other)
        n = p2 * p2 + q2 * q2
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRational")
        # (p1 + q1 i)/d1 * d2 (p2 - q2 i)/n
        return _gr((p1 * p2 + q1 * q2) * d2, (q1 * p2 - p1 * q2) * d2, d1 * n)

    def __rtruediv__(self, other):
        return GaussRational.of(other) / self

    # -- conversion / comparison ------------------------------------------
    def __complex__(self) -> complex:
        p, q, d = self._t
        return complex(p / d, q / d)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussRational):
            return self._t == other._t
        if isinstance(other, (int, Fraction)):
            p, q, d = self._t
            other = Fraction(other)
            return q == 0 and p * other.denominator == other.numerator * d
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i"
        return f"({re}{'+' if im > 0 else '-'}{abs(im)}*i)"


_set_t = GaussRational._t.__set__
_new = object.__new__


def _gr(p: int, q: int, d: int) -> GaussRational:
    """(p + q*i)/d for integers with d > 0, brought to lowest terms."""
    g = gcd(p, q, d)
    z = _new(GaussRational)
    _set_t(z, (p // g, q // g, d // g) if g != 1 else (p, q, d))
    return z


def _triple(x) -> tuple:
    """The (p, q, d) triple of a GaussRational or a rational."""
    if type(x) is GaussRational:
        return x._t
    if type(x) is int:
        return (x, 0, 1)
    return GaussRational.of(x)._t


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# MultiPoly
# ---------------------------------------------------------------------------

def _pack(exp: Sequence[int]) -> int:
    """The packed monomial of an exponent vector over ``SYMBOLS``."""
    m = sum(exp)
    if not 0 <= m < 256:
        raise OverflowError("total degree above 255")
    for k in exp:
        m = m << 8 | k
    return m


@cache
def _powers(m: int) -> tuple:
    """The (symbol index, exponent) pairs of monomial m, in symbol order."""
    return tuple((i, m >> s & 255) for i, s in enumerate(_SHIFTS)
                 if m >> s & 255)


class MultiPoly:
    """Sparse multivariate polynomial over GaussRational.

    Gaussian integers over one denominator: ``_n`` maps each packed
    monomial to a nonzero ``(p, q)``, and the value is the sum of
    (p + q*i)/``_d`` times each monomial.  The gcd of every p, q and d is
    1, so equal polynomials have equal ``(_d, _n)``; zero is ``({}, 1)``.
    A monomial packs 8 bits per symbol, w highest, under an 8-bit total
    degree, so a product of monomials is a sum of ints and graded lex
    order is int order.  A total degree above 255 raises OverflowError.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, terms: Mapping[tuple, GaussRational] | None = None):
        ts = [(_pack(e), _triple(c)) for e, c in (terms or {}).items()]
        d = lcm(*[t[2] for _, t in ts])
        p = _mp({m: (p * (d // e), q * (d // e))
                 for m, (p, q, e) in ts if p or q}, d)
        _set_n(self, p._n)
        _set_d(self, p._d)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def const(c: Union[GaussRational, Rationalish]) -> "MultiPoly":
        p, q, d = _triple(c)
        return _mp({0: (p, q)} if p or q else {}, d)

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return _mp({_DEG1 | 1 << _SHIFT[name]: (1, 0)}, 1)

    @staticmethod
    def of(x) -> "MultiPoly":
        if isinstance(x, MultiPoly):
            return x
        if isinstance(x, str):
            return MultiPoly.var(x)
        return MultiPoly.const(x)

    # -- predicates / queries ---------------------------------------------
    def is_zero(self) -> bool:
        return not self._n

    def total_degree(self) -> int:
        return max(self._n, default=0) >> _DEG

    def degree_in(self, name: str) -> int:
        s = _SHIFT[name]
        return max((m >> s & 255 for m in self._n), default=0)

    def symbols_used(self) -> set[str]:
        return {SYMBOLS[i] for m in self._n for i, _ in _powers(m)}

    def leading_term(self) -> tuple[tuple, GaussRational]:
        if not self._n:
            return (0,) * NVARS, GR_ZERO
        m = max(self._n)
        return (tuple(m >> s & 255 for s in _SHIFTS),
                _gr(*self._n[m], self._d))

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        # the terms of other are added to self's in their order: a sum that
        # cancels is deleted, and a new monomial is appended
        other = MultiPoly.of(other)
        n1, d1, n2, d2 = self._n, self._d, other._n, other._d
        if not n2:
            return self
        d = d1 if d1 == d2 else lcm(d1, d2)
        k1, k2 = d // d1, d // d2
        out = dict(n1) if k1 == 1 else {m: (p * k1, q * k1)
                                        for m, (p, q) in n1.items()}
        for m, (p, q) in n2.items():
            p *= k2
            q *= k2
            s = out.get(m)
            if s is not None:
                p += s[0]
                q += s[1]
                if not (p or q):
                    del out[m]
                    continue
            out[m] = (p, q)
        return _mp(out, d)

    __radd__ = __add__

    def __neg__(self):
        return _mp({m: (-p, -q) for m, (p, q) in self._n.items()}, self._d)

    def __sub__(self, other):
        return self + (-MultiPoly.of(other))

    def __rsub__(self, other):
        return MultiPoly.of(other) + (-self)

    def __mul__(self, other):
        other = MultiPoly.of(other)
        n1, n2 = self._n, other._n
        if len(n2) == 1 and 0 in n2:
            return _scaled(self, *n2[0], other._d)
        if len(n1) == 1 and 0 in n1:
            return _scaled(other, *n1[0], self._d)
        if not (n1 and n2):
            return P_ZERO
        if max(n1) + max(n2) >= _CAP:
            raise OverflowError("total degree above 255")
        acc: dict[int, tuple] = {}
        for e1, (p1, q1) in n1.items():
            for e2, (p2, q2) in n2.items():
                e = e1 + e2
                p = p1 * p2 - q1 * q2
                q = p1 * q2 + q1 * p2
                s = acc.get(e)
                if s is not None:
                    p += s[0]
                    q += s[1]
                    if not (p or q):
                        del acc[e]
                        continue
                acc[e] = (p, q)
        return _mp(acc, self._d * other._d)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("nonnegative integer exponent required")
        out, base = P_ONE, self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def scale(self, c) -> "MultiPoly":
        p, q, d = _triple(c)
        return _scaled(self, p, q, d) if p or q else P_ZERO

    # -- calculus ----------------------------------------------------------
    def deriv(self, name: str) -> "MultiPoly":
        s = _SHIFT[name]
        drop = _DEG1 | 1 << s
        out = {}
        for m, (p, q) in self._n.items():
            k = m >> s & 255
            if k:
                out[m - drop] = (p * k, q * k)
        return _mp(out, self._d)

    # -- substitution / evaluation ----------------------------------------
    def coeffs_in(self, name: str) -> list["MultiPoly"]:
        """Coefficients [c0, c1, ...] of powers of `name`, as polynomials
        in the remaining symbols."""
        s = _SHIFT[name]
        drop = _DEG1 | 1 << s
        buckets: list[dict] = [dict() for _ in range(self.degree_in(name) + 1)]
        for m, c in self._n.items():
            k = m >> s & 255
            buckets[k][m - k * drop] = c
        return [_mp(b, self._d) for b in buckets]

    def subs_poly(self, name: str, value: "MultiPoly") -> "MultiPoly":
        """Exact substitution of a polynomial for a symbol (Horner)."""
        cs = self.coeffs_in(name)
        out = MultiPoly()
        for c in reversed(cs):
            out = out * value + c
        return out

    def eval_numeric(self, assign: Mapping[str, complex]) -> complex:
        out = 0j
        vals = [complex(assign.get(s, 0.0)) for s in SYMBOLS]
        d = self._d
        for m, (p, q) in self._n.items():
            t = complex(p / d, q / d)
            for i, k in _powers(m):
                t *= vals[i] ** k
            out += t
        return out

    # -- comparison / display ---------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussRational)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._d == other._d and self._n == other._n

    def __hash__(self):
        return hash((self._d, frozenset(self._n.items())))

    def __repr__(self):
        if not self._n:
            return "0"
        parts = []
        for m in sorted(self._n, reverse=True):
            c = _gr(*self._n[m], self._d)
            mono = "*".join(f"{SYMBOLS[i]}^{k}" if k > 1 else SYMBOLS[i]
                            for i, k in _powers(m))
            parts.append(mono if c == GR_ONE and mono
                         else f"{c!r}*{mono}" if mono else repr(c))
        return " + ".join(parts)


_set_n = MultiPoly._n.__set__
_set_d = MultiPoly._d.__set__


def _gcd(g: int, n: dict) -> int:
    """The gcd of g and every Gaussian integer of n."""
    for p, q in n.values():
        g = gcd(g, p, q)
        if g == 1:
            break
    return g


def _mp(n: dict, d: int) -> MultiPoly:
    """The MultiPoly of nonzero `n` over d > 0, reduced; `n` not copied."""
    g = _gcd(d, n) if d != 1 else 1
    if g != 1:
        n = {m: (p // g, q // g) for m, (p, q) in n.items()}
        d //= g
    out = _new(MultiPoly)
    _set_n(out, n)
    _set_d(out, d)
    return out


def _scaled(a: MultiPoly, p: int, q: int, d: int) -> MultiPoly:
    """a times the nonzero scalar (p + q*i)/d."""
    if q == 0:
        if p == d:
            return a
        n = {m: (x * p, y * p) for m, (x, y) in a._n.items()}
    else:
        n = {m: (x * p - y * q, x * q + y * p) for m, (x, y) in a._n.items()}
    return _mp(n, a._d * d)


P_ZERO = MultiPoly()
P_ONE = MultiPoly.const(1)


# ---------------------------------------------------------------------------
# RatFun
# ---------------------------------------------------------------------------

class RatFun:
    """Rational function num/den of MultiPoly.

    Normal form: num and den are scaled by the one Gaussian-rational factor
    that makes the denominator's leading coefficient (graded lex) 1 and
    then removes the numerator's content.  The numerator thus has content
    1 and the denominator a positive rational leading coefficient (1 over
    the content the numerator had once the denominator was monic); zero is
    0/1.  No polynomial gcd is taken, so equality is decided by
    cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        num = MultiPoly.of(num)
        den = P_ONE if den is None else MultiPoly.of(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in RatFun")
        if num.is_zero():
            den = P_ONE
        else:
            p, q = den._n[max(den._n)]
            f = GR_ONE
            if q:
                f = GR_ONE / _gr(p, q, den._d)
                num = num.scale(f)
            # content(num) is g/d for the gcd g of num's Gaussian integers;
            # under a real lead the factor is sign(lead)/content(num)
            s = 1 if q or p > 0 else -1
            g = _gcd(0, num._n)
            if s * num._d != 1 or g != 1:
                f = f * _gr(s * num._d, 0, g)
                num = _mp({m: (x * s // g, y * s // g)
                           for m, (x, y) in num._n.items()}, 1)
            if f._t != GR_ONE._t:
                den = den.scale(f)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    @staticmethod
    def of(x) -> "RatFun":
        if isinstance(x, RatFun):
            return x
        return RatFun(MultiPoly.of(x))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den == P_ONE

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        other = RatFun.of(other)
        # a normal form plus zero is that normal form
        if other.num.is_zero():
            return self
        if self.num.is_zero():
            return other
        if self.den == other.den:
            return RatFun(self.num + other.num, self.den)
        return RatFun(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RatFun.of(other))

    def __rsub__(self, other):
        return RatFun.of(other) + (-self)

    def __mul__(self, other):
        other = RatFun.of(other)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFun.of(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero RatFun")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFun.of(other) / self

    def deriv(self, name: str) -> "RatFun":
        if self.is_poly():
            return RatFun(self.num.deriv(name))
        return RatFun(self.num.deriv(name) * self.den
                      - self.num * self.den.deriv(name),
                      self.den * self.den)

    def eval_numeric(self, assign: Mapping[str, complex]) -> complex:
        d = self.den.eval_numeric(assign)
        if abs(d) < 1e-300:
            raise ZeroDivisionError("evaluation at singular point")
        return self.num.eval_numeric(assign) / d

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussRational, MultiPoly)):
            other = RatFun.of(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self):
        raise TypeError("RatFun is not hashable (equality is semantic)")

    def __repr__(self):
        if self.is_poly():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


_set_num = RatFun.num.__set__
_set_den = RatFun.den.__set__

RF_ZERO = RatFun(P_ZERO)
RF_ONE = RatFun(P_ONE)


# ---------------------------------------------------------------------------
# DiffOperator
# ---------------------------------------------------------------------------

class DiffOperator:
    """Linear differential operator sum_k c_k(x, params) * d^k/dx^k."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Sequence):
        if var not in ("w", "v"):
            raise ValueError(f"working variable must be w or v, got {var!r}")
        cs = [RatFun.of(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("DiffOperator is immutable")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def identity(var: str) -> "DiffOperator":
        return DiffOperator(var, [RF_ONE])

    # -- queries -----------------------------------------------------------
    def order(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> RatFun:
        return self.coeffs[k] if k < len(self.coeffs) else RF_ZERO

    # -- linear structure --------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        if other.var != self.var:
            raise ValueError("operator variable mismatch")
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOperator(self.var,
                            [self.coeff(k) + other.coeff(k) for k in range(n)])

    def __neg__(self):
        return DiffOperator(self.var, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f) -> "DiffOperator":
        f = RatFun.of(f)
        return DiffOperator(self.var, [f * c for c in self.coeffs])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        if self.var != other.var:
            return False
        n = max(len(self.coeffs), len(other.coeffs))
        return all(self.coeff(k) == other.coeff(k) for k in range(n))

    def __hash__(self):
        raise TypeError("DiffOperator is not hashable")

    def __repr__(self):
        if not self.coeffs:
            return "0"
        x = self.var
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c.is_zero():
                continue
            dpart = f"D{x}^{k}" if k > 1 else (f"D{x}" if k == 1 else "")
            parts.append(f"({c!r})" + (f"*{dpart}" if dpart else ""))
        return " + ".join(parts)


def _summed(var: str, columns: Sequence[list]) -> DiffOperator:
    """The operator whose k-th coefficient is the sum of columns[k], added
    left to right: what adding the terms as one-term operators in the same
    order gives, without renormalizing every coefficient once per term."""
    return DiffOperator(var, [reduce(_add, col) if col else RF_ZERO
                              for col in columns])


def _columns(ops: Iterable[DiffOperator]) -> list[list]:
    """The nonzero coefficients of `ops`, gathered by derivative order."""
    columns: list[list] = []
    for op in ops:
        for k, c in enumerate(op.coeffs):
            if k == len(columns):
                columns.append([])
            if not c.is_zero():
                columns[k].append(c)
    return columns


def op_compose(A: DiffOperator, B: DiffOperator) -> DiffOperator:
    """Operator composition (A o B)f = A(Bf), via the Leibniz rule."""
    if A.var != B.var:
        raise ValueError("operator variable mismatch")
    x = A.var
    columns: list[list] = [[] for _ in range(len(A.coeffs) + len(B.coeffs))]
    # derivatives of each coefficient of B, up to the order of A
    derivs = []
    for b in B.coeffs:
        ds = [b]
        for _ in range(len(A.coeffs) - 1):
            ds.append(ds[-1].deriv(x))
        derivs.append(ds)
    for k, a in enumerate(A.coeffs):
        if a.is_zero():
            continue
        # d^k (b f) = sum_i C(k,i) b^{(i)} f^{(k-i)}
        for j, b in enumerate(B.coeffs):
            if b.is_zero():
                continue
            for i in range(k + 1):
                c = a * derivs[j][i] * math.comb(k, i)
                if not c.is_zero():
                    columns[j + k - i].append(c)
    return _summed(x, columns)


# ---------------------------------------------------------------------------
# Multiplier
# ---------------------------------------------------------------------------

class _LinFactor(NamedTuple):
    a: GaussRational
    b: GaussRational
    gamma: MultiPoly


class LinFactor(_LinFactor):
    """(a*x + b)^gamma with a, b Gaussian rationals and gamma a polynomial of
    degree <= 1 in the parameter symbols."""
    __slots__ = ()

    def __new__(cls, a: GaussRational, b: GaussRational, gamma: MultiPoly):
        if gamma.total_degree() > 1 or gamma.symbols_used() & {"w", "v"}:
            raise ValueError(
                "multiplier exponent must be linear in parameter symbols")
        return super().__new__(cls, a, b, gamma)


class Multiplier:
    """Product of linear-factor powers times exp(q(x)), deg q <= 2.

    Conjugation of an operator by a multiplier is exact: the only effect is
    the shift  d/dx -> d/dx + dlog(m)  with dlog(m) a rational function.
    """

    __slots__ = ("var", "factors", "exp_part")

    def __init__(self, var: str, factors: Iterable[LinFactor] = (),
                 exp_part: Sequence = (0, 0, 0)):
        q = tuple(GaussRational.of(c) for c in exp_part)
        if len(q) != 3:
            raise ValueError("exp_part must be (q0, q1, q2) for q0+q1*x+q2*x^2")
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "factors", tuple(factors))
        object.__setattr__(self, "exp_part", q)

    def __setattr__(self, name, value):
        raise AttributeError("Multiplier is immutable")

    @staticmethod
    def one(var: str) -> "Multiplier":
        return Multiplier(var)

    @staticmethod
    def power(var: str, a, b, gamma) -> "Multiplier":
        """(a*x+b)^gamma as a multiplier."""
        return Multiplier(var, [LinFactor(GaussRational.of(a),
                                          GaussRational.of(b),
                                          MultiPoly.of(gamma))])

    @staticmethod
    def exp(var: str, q0=0, q1=0, q2=0) -> "Multiplier":
        """exp(q0 + q1*x + q2*x^2) as a multiplier."""
        return Multiplier(var, (), (q0, q1, q2))

    def __mul__(self, other: "Multiplier") -> "Multiplier":
        if other.var != self.var:
            raise ValueError("multiplier variable mismatch")
        q = tuple(a + b for a, b in zip(self.exp_part, other.exp_part))
        return Multiplier(self.var, self.factors + other.factors, q)

    def inverse(self) -> "Multiplier":
        return Multiplier(
            self.var,
            [LinFactor(f.a, f.b, -f.gamma) for f in self.factors],
            tuple(-c for c in self.exp_part),
        )

    def dlog(self) -> RatFun:
        """Logarithmic derivative d/dx log m(x), an exact rational function."""
        x = self.var
        out = RatFun.of(0)
        for f in self.factors:
            lin = MultiPoly.var(x).scale(f.a) + MultiPoly.const(f.b)
            out = out + RatFun(MultiPoly.const(f.a) * f.gamma, lin)
        q0, q1, q2 = self.exp_part
        out = out + RatFun(MultiPoly.const(q1)
                           + MultiPoly.var(x).scale(q2 * 2))
        return out

    def eval_numeric(self, x: complex, assign: Mapping[str, complex]) -> complex:
        """Principal-branch numeric value of the multiplier."""
        out = 1 + 0j
        for f in self.factors:
            base = complex(f.a) * x + complex(f.b)
            out *= base ** f.gamma.eval_numeric(assign)
        q0, q1, q2 = (complex(c) for c in self.exp_part)
        out *= cmath.exp(q0 + q1 * x + q2 * x * x)
        return out

    def __repr__(self):
        parts = [f"({f.a!r}*{self.var}+{f.b!r})^({f.gamma!r})"
                 for f in self.factors]
        q0, q1, q2 = self.exp_part
        if not (q0.is_zero() and q1.is_zero() and q2.is_zero()):
            parts.append(f"exp({q0!r}+{q1!r}*{self.var}+{q2!r}*{self.var}^2)")
        return "*".join(parts) if parts else "1"


def op_conjugate(F: DiffOperator, m: Multiplier) -> DiffOperator:
    """m^{-1} o F o m, computed by the exact shift d -> d + dlog(m)."""
    if m.var != F.var:
        raise ValueError("multiplier/operator variable mismatch")
    x = F.var
    g = m.dlog()
    # (d + g)^k applied iteratively: P_{k} = (d + g) o P_{k-1}
    shifted_powers = [DiffOperator.identity(x)]
    for _ in range(F.order()):
        P = shifted_powers[-1]
        # (d + g) o P = d o P + g*P ; d o P = sum (c' d^j + c d^{j+1})
        dP = DiffOperator(x, [RF_ZERO] + list(P.coeffs))
        dP = dP + DiffOperator(x, [c.deriv(x) for c in P.coeffs])
        shifted_powers.append(dP + P.scale(g))
    return _summed(x, _columns(shifted_powers[k].scale(c)
                               for k, c in enumerate(F.coeffs)
                               if not c.is_zero()))


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

class Substitution:
    """Change of variable x = phi(y), Moebius or quadratic.

    Moebius:   x = (p*y + q)/(r*y + s),  p*s - q*r != 0.
    Quadratic: x = c*y^2 + d.
    """

    __slots__ = ("kind", "data", "source", "target")

    def __init__(self, kind: str, data: tuple, source: str, target: str):
        if source == target:
            raise ValueError("source and target variables must differ")
        data = tuple(GaussRational.of(c) for c in data)
        if kind == "moebius":
            p, q, r, s = data
            if (p * s - q * r).is_zero():
                raise ValueError("singular Moebius substitution (ps - qr = 0)")
        elif kind == "quadratic":
            c, _d = data
            if c.is_zero():
                raise ValueError("degenerate quadratic substitution")
        else:
            raise ValueError(f"unknown substitution kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)

    def __setattr__(self, name, value):
        raise AttributeError("Substitution is immutable")

    def _value(self) -> tuple:
        return (self.kind, self.data, self.source, self.target)

    def __eq__(self, other) -> bool:
        if isinstance(other, Substitution):
            return self._value() == other._value()
        return NotImplemented

    def __hash__(self):
        return hash(self._value())

    @staticmethod
    def moebius(source: str, target: str, p, q, r, s) -> "Substitution":
        return Substitution("moebius", (p, q, r, s), source, target)

    @staticmethod
    def quadratic(source: str, target: str, c, d=0) -> "Substitution":
        return Substitution("quadratic", (c, d), source, target)

    def phi(self) -> RatFun:
        """phi(y) as a RatFun in the target variable."""
        y = MultiPoly.var(self.target)
        if self.kind == "moebius":
            p, q, r, s = self.data
            return RatFun(y.scale(p) + MultiPoly.const(q),
                          y.scale(r) + MultiPoly.const(s))
        c, d = self.data
        return RatFun(y * y.scale(c) + MultiPoly.const(d))

    def phi_prime(self) -> RatFun:
        return self.phi().deriv(self.target)

    def __repr__(self):
        if self.kind == "moebius":
            p, q, r, s = self.data
            return (f"{self.source}=({p!r}*{self.target}+{q!r})"
                    f"/({r!r}*{self.target}+{s!r})")
        c, d = self.data
        return f"{self.source}={c!r}*{self.target}^2+{d!r}"


def _ratfun_compose(f: RatFun, name: str, phi: RatFun) -> RatFun:
    """f with the symbol `name` replaced by the rational function phi."""

    def poly_compose(p: MultiPoly) -> RatFun:
        cs = p.coeffs_in(name)
        d = len(cs) - 1
        num = P_ZERO
        for k, c in enumerate(cs):
            num = num + c * (phi.num ** k) * (phi.den ** (d - k))
        return RatFun(num, phi.den ** d)

    return poly_compose(f.num) / poly_compose(f.den)


def op_substitute(F: DiffOperator, s: Substitution) -> DiffOperator:
    """Rewrite F(x, d/dx) in the target variable under x = phi(y).

    The result G satisfies G[f](y) = F[g](phi(y)) for g(x) := f(phi^{-1}(x)),
    i.e. coefficients are composed with phi and d/dx -> (1/phi'(y)) d/dy.
    """
    if s.source != F.var:
        raise ValueError("substitution source must match operator variable")
    y = s.target
    phi = s.phi()
    inv_dphi = RF_ONE / s.phi_prime()
    D = DiffOperator(y, [RF_ZERO, inv_dphi])
    powers = [DiffOperator.identity(y)]
    for _ in range(F.order()):
        powers.append(op_compose(D, powers[-1]))
    return _summed(y, _columns(powers[k].scale(_ratfun_compose(c, F.var, phi))
                               for k, c in enumerate(F.coeffs)
                               if not c.is_zero()))


# ---------------------------------------------------------------------------
# Operators on jets
# ---------------------------------------------------------------------------

def jet_apply(F: DiffOperator, f: Jet, assign: Mapping[str, complex]):
    """Apply a numerically instantiated operator to a function given as a jet.

    `assign` supplies the numeric values of the working variable (at the jet
    center) and the parameter symbols.  Returns (value, largest_term): the
    largest |c_k f^(k)|, at least 1e-300, is the scale against which a
    residual that should vanish is measured.
    """
    if f.order < F.order():
        raise ValueError("jet order too low for operator order")
    out = 0j
    largest = 0.0
    for k, c in enumerate(F.coeffs):
        if c.is_zero():
            continue
        term = c.eval_numeric(assign) * f.derivative_value(k)
        out += term
        largest = max(largest, abs(term))
    return out, max(largest, 1e-300)
