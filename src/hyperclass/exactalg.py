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
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add as _add
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence, Union

if TYPE_CHECKING:
    from .jet import Jet

# Fixed, ordered symbol universe.  The first two are working variables, the
# rest are parameter symbols.  Exponent vectors are tuples of this length.
SYMBOLS: tuple[str, ...] = ("w", "v", "alpha", "beta", "mu", "theta", "lam")
_SYM_INDEX = {s: i for i, s in enumerate(SYMBOLS)}
NVARS = len(SYMBOLS)
_ZERO_EXP = (0,) * NVARS

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
        if type(re) is int and type(im) is int:
            _set_t(self, (re, im, 1))
            return
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
        if d1 == d2:
            return _gr(p1 + p2, q1 + q2, d1)
        return _gr(p1 * d2 + p2 * d1, q1 * d2 + q2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        p, q, d = self._t
        return _reduced(-p, -q, d)

    def __sub__(self, other):
        p1, q1, d1 = self._t
        p2, q2, d2 = _triple(other)
        if d1 == d2:
            return _gr(p1 - p2, q1 - q2, d1)
        return _gr(p1 * d2 - p2 * d1, q1 * d2 - q2 * d1, d1 * d2)

    def __rsub__(self, other):
        return GaussRational.of(other) - self

    def __mul__(self, other):
        p1, q1, d1 = self._t
        p2, q2, d2 = _triple(other)
        if q2 == 0:
            return _gr(p1 * p2, q1 * p2, d1 * d2)
        if q1 == 0:
            return _gr(p1 * p2, p1 * q2, d1 * d2)
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

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("integer exponent required")
        if n < 0:
            return GaussRational(1) / (self ** (-n))
        out = GaussRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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


def _reduced(p: int, q: int, d: int) -> GaussRational:
    """(p + q*i)/d from a triple already in lowest terms, d > 0."""
    z = _new(GaussRational)
    _set_t(z, (p, q, d))
    return z


def _gr(p: int, q: int, d: int) -> GaussRational:
    """(p + q*i)/d for integers with d > 0, brought to lowest terms."""
    g = gcd(p, q, d)
    if g != 1:
        return _reduced(p // g, q // g, d // g)
    return _reduced(p, q, d)


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

def _grlex_key(exp: tuple) -> tuple:
    return (sum(exp), exp)


class MultiPoly:
    """Sparse multivariate polynomial over GaussRational.

    Exponent vectors run over the fixed symbol universe ``SYMBOLS``.
    Zero coefficients are never stored; the term order used for display and
    leading-term queries is graded lexicographic.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, GaussRational] | None = None):
        clean = {}
        if terms:
            for exp, c in terms.items():
                c = GaussRational.of(c)
                if not c.is_zero():
                    clean[tuple(exp)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def const(c: Union[GaussRational, Rationalish]) -> "MultiPoly":
        return MultiPoly({_ZERO_EXP: GaussRational.of(c)})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        exp = [0] * NVARS
        exp[_SYM_INDEX[name]] = 1
        return MultiPoly({tuple(exp): GR_ONE})

    @staticmethod
    def of(x) -> "MultiPoly":
        if isinstance(x, MultiPoly):
            return x
        if isinstance(x, str):
            return MultiPoly.var(x)
        return MultiPoly.const(x)

    # -- predicates / queries ---------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        i = _SYM_INDEX[name]
        return max((e[i] for e in self.terms), default=0)

    def symbols_used(self) -> set[str]:
        out = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    out.add(SYMBOLS[i])
        return out

    def leading_term(self) -> tuple[tuple, GaussRational]:
        if not self.terms:
            return _ZERO_EXP, GR_ZERO
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        other = MultiPoly.of(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
                continue
            s = s + c
            if s.is_zero():
                del out[e]
            else:
                out[e] = s
        return _poly(out)

    __radd__ = __add__

    def __neg__(self):
        return _poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-MultiPoly.of(other))

    def __rsub__(self, other):
        return MultiPoly.of(other) + (-self)

    def __mul__(self, other):
        other = MultiPoly.of(other)
        t1, t2 = self.terms, other.terms
        if len(t2) == 1 and _ZERO_EXP in t2:
            return self.scale(t2[_ZERO_EXP])
        if len(t1) == 1 and _ZERO_EXP in t1:
            return other.scale(t1[_ZERO_EXP])
        # Gaussian integers over one denominator per factor: the products
        # and sums below are integer operations, reduced once at the end
        n1, d1 = _over_common_den(t1)
        n2, d2 = _over_common_den(t2)
        acc: dict[tuple, tuple] = {}
        for e1, p1, q1 in n1:
            for e2, p2, q2 in n2:
                e = tuple(map(_add, e1, e2))
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
        d = d1 * d2
        return _poly({e: _gr(p, q, d) for e, (p, q) in acc.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("nonnegative integer exponent required")
        out = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, c) -> "MultiPoly":
        c = GaussRational.of(c)
        if c._t == _ONE_T:
            return self
        if c.is_zero():
            return P_ZERO
        return _poly({e: k * c for e, k in self.terms.items()})

    # -- calculus ----------------------------------------------------------
    def deriv(self, name: str) -> "MultiPoly":
        i = _SYM_INDEX[name]
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * e[i]
        return _poly(out)

    # -- substitution / evaluation ----------------------------------------
    def coeffs_in(self, name: str) -> list["MultiPoly"]:
        """Coefficients [c0, c1, ...] of powers of `name`, as polynomials
        in the remaining symbols."""
        i = _SYM_INDEX[name]
        d = self.degree_in(name)
        buckets: list[dict] = [dict() for _ in range(d + 1)]
        for e, c in self.terms.items():
            ne = list(e)
            k = ne[i]
            ne[i] = 0
            buckets[k][tuple(ne)] = c
        return [_poly(b) for b in buckets]

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
        for e, c in self.terms.items():
            t = complex(c)
            for i, k in enumerate(e):
                if k:
                    t *= vals[i] ** k
            out += t
        return out

    # -- comparison / display ---------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussRational)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{SYMBOLS[i]}^{k}" if k > 1 else SYMBOLS[i]
                for i, k in enumerate(e) if k
            )
            if mono:
                parts.append(f"{c!r}*{mono}" if c != GR_ONE else mono)
            else:
                parts.append(repr(c))
        return " + ".join(parts)


_set_terms = MultiPoly.terms.__set__
_ONE_T = (1, 0, 1)


def _poly(terms: dict) -> MultiPoly:
    """MultiPoly that takes `terms` as is: tuple exponents, nonzero
    GaussRational coefficients, not copied."""
    p = _new(MultiPoly)
    _set_terms(p, terms)
    return p


def _over_common_den(terms: Mapping) -> tuple[list, int]:
    """([(exp, p, q)], D): each coefficient as (p + q*i)/D, one D for all."""
    ts = [(e, c._t) for e, c in terms.items()]
    D = lcm(*[t[2] for _, t in ts])
    return [(e, p * (D // d), q * (D // d)) for e, (p, q, d) in ts], D


def _content(coeffs: Iterable[GaussRational]) -> tuple[int, int]:
    """(g, L) with g/L the content of nonzero `coeffs`: the real and
    imaginary parts generate the integer multiples of g/L."""
    ts = [c._t for c in coeffs]
    L = lcm(*[d for _, _, d in ts])
    return gcd(*[gcd(p, q) * (L // d) for p, q, d in ts]), L


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
            _, lead = den.leading_term()
            p, q, d = lead._t
            if q == 0:
                # content(num/lead) = content(num)*d/|p|, so the factor
                # (1/lead)/content(num/lead) is sign(p)*L/g
                g, L = _content(num.terms.values())
                f = _gr(L if p > 0 else -L, 0, g)
            else:
                inv = GR_ONE / lead
                g, L = _content([c * inv for c in num.terms.values()])
                f = inv * _gr(L, 0, g)
            if f._t != _ONE_T:
                num = num.scale(f)
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
    """The operator whose k-th coefficient is the sum of columns[k].

    Each column is added left to right and the operator is built once, so
    the result is the one that adding the terms as one-term operators in
    the same order would give, without renormalizing every coefficient
    once per term.
    """
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

@dataclass(frozen=True)
class LinFactor:
    """(a*x + b)^gamma with a, b Gaussian rationals and gamma a polynomial of
    degree <= 1 in the parameter symbols."""
    a: GaussRational
    b: GaussRational
    gamma: MultiPoly

    def __post_init__(self):
        g = self.gamma
        if g.total_degree() > 1 or g.symbols_used() & {"w", "v"}:
            raise ValueError(
                "multiplier exponent must be linear in parameter symbols")


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

    def inverse(self) -> "Substitution":
        if self.kind != "moebius":
            raise ValueError("only Moebius substitutions are invertible here")
        p, q, r, s = self.data
        return Substitution("moebius", (s, -q, -r, p), self.target, self.source)

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
