"""The five equation families and their machine-readable identity catalogs.

Families (working in the Lie-algebraic parameters):

* ``2f1``        — Gauss hypergeometric operator  F_{alpha,beta,mu}
* ``gegenbauer`` — Gegenbauer operator            S_{alpha,lam}
* ``1f1``        — confluent (Kummer) operator    F_{theta,alpha}
* ``2f0``        — the companion 2F0 operator     Ft_{theta,alpha}
* ``hermite``    — Hermite operator               S_{lam}
* ``0f1``        — 0F1 (Bessel-class) operator    F_{alpha}

Catalogs are data: every transmutation, factorization, discrete symmetry,
recurrence and quadratic link is a record with a self-describing location
string, interpreted (and checked) by the verify module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactalg import (
    DiffOperator,
    GaussRational,
    LinFactor,
    MultiPoly,
    Multiplier,
    RatFun,
    Substitution,
)

FAMILIES = ("2f1", "gegenbauer", "1f1", "2f0", "hermite", "0f1")

PARAM_NAMES: dict[str, tuple[str, ...]] = {
    "2f1": ("alpha", "beta", "mu"),
    "gegenbauer": ("alpha", "lam"),
    "1f1": ("theta", "alpha"),
    "2f0": ("theta", "alpha"),
    "hermite": ("lam",),
    "0f1": ("alpha",),
}

# symbol shorthands used throughout the catalogs
AL = MultiPoly.var("alpha")
BE = MultiPoly.var("beta")
MU = MultiPoly.var("mu")
TH = MultiPoly.var("theta")
LA = MultiPoly.var("lam")
HALF = Fraction(1, 2)


def C(x) -> MultiPoly:
    return MultiPoly.const(Fraction(x) if not isinstance(x, GaussRational) else x)


def _op(var: str, c0, c1=None, c2=None) -> DiffOperator:
    coeffs = [RatFun.of(MultiPoly.of(c0))]
    if c1 is not None:
        coeffs.append(RatFun.of(MultiPoly.of(c1)))
    if c2 is not None:
        coeffs.append(RatFun.of(MultiPoly.of(c2)))
    return DiffOperator(var, coeffs)


def _first(var: str, c1, c0) -> DiffOperator:
    """First-order operator c1*d + c0."""
    return _op(var, c0, c1)


# ---------------------------------------------------------------------------
# Parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyParams:
    """Lie-algebraic parameters of one family member.

    Values are exact rationals (Fraction) for symbolic work or complex
    numbers for numeric work, keyed in the family's canonical order.
    """
    family: str
    values: tuple

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if len(self.values) != len(PARAM_NAMES[self.family]):
            raise ValueError("wrong number of parameters for family")


@dataclass(frozen=True)
class ClassicalParams:
    """Classical parameters (a, b, c as applicable) of one family member."""
    family: str
    values: dict


def lie_to_classical(p: FamilyParams) -> ClassicalParams:
    f = p.family
    if f == "2f1":
        al, be, mu = p.values
        return ClassicalParams(f, {
            "a": (1 + al + be + mu) / 2,
            "b": (1 + al + be - mu) / 2,
            "c": 1 + al,
        })
    if f == "gegenbauer":
        al, la = p.values
        return ClassicalParams(f, {"a": Fraction(1, 2) + al - la,
                                   "b": Fraction(1, 2) + al + la}
                               if isinstance(al, Fraction) or isinstance(la, Fraction)
                               else {"a": 0.5 + al - la, "b": 0.5 + al + la})
    if f in ("1f1", "2f0"):
        th, al = p.values
        return ClassicalParams(f, {"a": (1 + al + th) / 2,
                                   "b": (1 - al + th) / 2,
                                   "c": 1 + al})
    if f == "hermite":
        (la,) = p.values
        return ClassicalParams(f, {"a": la + (Fraction(1, 2) if isinstance(la, Fraction) else 0.5)})
    if f == "0f1":
        (al,) = p.values
        return ClassicalParams(f, {"c": al + 1})
    raise ValueError(f)


def classical_to_lie(c: ClassicalParams) -> FamilyParams:
    f = c.family
    v = c.values
    if f == "2f1":
        return FamilyParams(f, (v["c"] - 1, v["a"] + v["b"] - v["c"], v["a"] - v["b"]))
    if f == "gegenbauer":
        return FamilyParams(f, ((v["a"] + v["b"] - 1) / 2, (v["b"] - v["a"]) / 2))
    if f in ("1f1", "2f0"):
        if "c" in v:
            return FamilyParams(f, (2 * v["a"] - v["c"], v["c"] - 1))
        return FamilyParams(f, (-1 + v["a"] + v["b"], v["a"] - v["b"]))
    if f == "hermite":
        half = Fraction(1, 2) if isinstance(v["a"], Fraction) else 0.5
        return FamilyParams(f, (v["a"] - half,))
    if f == "0f1":
        return FamilyParams(f, (v["c"] - 1,))
    raise ValueError(f)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def make_operator_expr(family: str, var: str, params: tuple[MultiPoly, ...]) -> DiffOperator:
    """Family operator with arbitrary polynomial parameter expressions."""
    x = MultiPoly.var(var)
    one = MultiPoly.const(1)
    if family == "2f1":
        al, be, mu = params
        sigma = x * (one - x)
        tau = (one + al) * (one - x) - (one + be) * x
        eta = (al + be + one) * (al + be + one).scale(Fraction(-1, 4)) \
            + (mu * mu).scale(Fraction(1, 4))
        return _op(var, eta, tau, sigma)
    if family == "gegenbauer":
        al, la = params
        sigma = one - x * x
        tau = (one + al).scale(-2) * x
        eta = la * la - (al + C(HALF)) * (al + C(HALF))
        return _op(var, eta, tau, sigma)
    if family == "1f1":
        th, al = params
        return _op(var, (one + th + al).scale(Fraction(-1, 2)), one + al - x, x)
    if family == "2f0":
        th, al = params
        eta = ((one + th) * (one + th) - al * al).scale(Fraction(1, 4))
        return _op(var, eta, -one + (C(2) + th) * x, x * x)
    if family == "hermite":
        (la,) = params
        return _op(var, la.scale(-2) - one, x.scale(-2), one)
    if family == "0f1":
        (al,) = params
        return _op(var, -one, one + al, x)
    raise ValueError(f"unknown family {family!r}")


def symbolic_params(family: str) -> tuple[MultiPoly, ...]:
    return tuple(MultiPoly.var(n) for n in PARAM_NAMES[family])


# ---------------------------------------------------------------------------
# Catalog row types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransmutationRow:
    """A * (weight * F_source) = (weight * F_target) * A."""
    id: str
    location: str
    A: DiffOperator
    weight: MultiPoly
    target: tuple[MultiPoly, ...]


@dataclass(frozen=True)
class FactorizationRow:
    """weight * F = left o right + constant."""
    id: str
    location: str
    weight: MultiPoly
    left: DiffOperator
    right: DiffOperator
    constant: MultiPoly
    # Darboux partner: (row id, parameter expressions of the partner member)
    pair: Optional[tuple[str, tuple[MultiPoly, ...]]] = None


@dataclass(frozen=True)
class SymmetryRow:
    """substitute(F_source, sub) = sign * prefactor * m^{-1} F_target m.

    Rational rows are checked symbolically.  The Gegenbauer rows with
    w = +-v/sqrt(v^2-1) carry sub=None, mode='numeric' and algebraic_sign.
    """
    id: str
    location: str
    sub: Optional[Substitution]
    target: tuple[MultiPoly, ...]
    mult: Multiplier
    prefactor: RatFun
    sign: int = 1
    mode: str = "symbolic"
    algebraic_sign: int = 0


@dataclass(frozen=True)
class RecurrenceRow:
    """A applied to the normalized function = coeff * shifted function.

    `normalization` is "plain", "bold" or "I", as in
    `numerics.NORMALIZED`."""
    id: str
    location: str
    A: DiffOperator
    coeff: MultiPoly
    target: tuple[MultiPoly, ...]
    normalization: str


@dataclass(frozen=True)
class QuadraticLink:
    """substitute(scale * F_source(w), sub) = prefactor * m^{-1} F_target(v) m."""
    id: str
    location: str
    source_family: str
    source_params: tuple[MultiPoly, ...]
    scale: Fraction
    sub: Substitution
    target_family: str
    target_params: tuple[MultiPoly, ...]
    mult: Multiplier
    prefactor: RatFun


@dataclass(frozen=True)
class IdentityCatalog:
    family: str
    transmutations: tuple[TransmutationRow, ...]
    factorizations: tuple[FactorizationRow, ...]
    symmetries: tuple[SymmetryRow, ...]
    recurrences: tuple[RecurrenceRow, ...]

    @property
    def integral_reps(self):
        from . import quadrature
        return quadrature.integral_rep_rows(self.family)


# Expected row counts (an invariant of the transcription).
EXPECTED_COUNTS = {
    "2f1": {"transmutations": 12, "factorizations": 12, "symmetries": 24,
            "recurrences": 12},
    "gegenbauer": {"transmutations": 8, "factorizations": 8, "symmetries": 8,
                   "recurrences": 8},
    "1f1": {"transmutations": 6, "factorizations": 6, "symmetries": 4,
            "recurrences": 6},
    "hermite": {"transmutations": 4, "factorizations": 4, "symmetries": 4,
                "recurrences": 4},
    "0f1": {"transmutations": 2, "factorizations": 2, "symmetries": 1,
            "recurrences": 2},
}


# ---------------------------------------------------------------------------
# 2F1 catalog
# ---------------------------------------------------------------------------

def _w() -> MultiPoly:
    return MultiPoly.var("w")


def _v() -> MultiPoly:
    return MultiPoly.var("v")


def _pow_mv(gamma) -> Multiplier:
    """(-v)^gamma."""
    return Multiplier.power("v", -1, 0, gamma)


def _pow_vm1(gamma) -> Multiplier:
    """(v-1)^gamma."""
    return Multiplier.power("v", 1, -1, gamma)


def _build_2f1() -> IdentityCatalog:
    w = _w()
    one = MultiPoly.const(1)
    s1 = (AL + BE + MU + one).scale(HALF)    # (alpha+beta+mu+1)/2
    s2 = (AL + BE - MU + one).scale(HALF)    # (alpha+beta-mu+1)/2

    def t(i, A, weight, tgt, desc):
        return TransmutationRow(f"2f1:trans:{i:02d}", desc, A, weight, tgt)

    trans = (
        t(1, _first("w", one, MultiPoly()), one, (AL + 1, BE + 1, MU),
          "d_w intertwines (a,b,m)->(a+1,b+1,m)"),
        t(2, _first("w", w * (one - w), (one - w) * AL - w * BE), one,
          (AL - 1, BE - 1, MU),
          "w(1-w)d_w+(1-w)a-wb intertwines (a,b,m)->(a-1,b-1,m)"),
        t(3, _first("w", one - w, -BE), one, (AL + 1, BE - 1, MU),
          "(1-w)d_w-b intertwines (a,b,m)->(a+1,b-1,m)"),
        t(4, _first("w", w, AL), one, (AL - 1, BE + 1, MU),
          "w d_w+a intertwines (a,b,m)->(a-1,b+1,m)"),
        t(5, _first("w", w, s1), w, (AL, BE + 1, MU + 1),
          "w d_w+(a+b+m+1)/2 intertwines w-weighted (a,b,m)->(a,b+1,m+1)"),
        t(6, _first("w", w * (w - one), (w - one) * s2 + BE), w,
          (AL, BE - 1, MU - 1),
          "w(w-1)d_w+(w-1)(a+b-m+1)/2+b intertwines w-weighted (a,b,m)->(a,b-1,m-1)"),
        t(7, _first("w", w, s2), w, (AL, BE + 1, MU - 1),
          "w d_w+(a+b-m+1)/2 intertwines w-weighted (a,b,m)->(a,b+1,m-1)"),
        t(8, _first("w", w * (w - one), -(one - w) * s1 + BE), w,
          (AL, BE - 1, MU + 1),
          "w(w-1)d_w-(1-w)(a+b+m+1)/2+b intertwines w-weighted (a,b,m)->(a,b-1,m+1)"),
        t(9, _first("w", w - one, s1), one - w, (AL + 1, BE, MU + 1),
          "(w-1)d_w+(a+b+m+1)/2 intertwines (1-w)-weighted (a,b,m)->(a+1,b,m+1)"),
        t(10, _first("w", w * (w - one), w * s2 - AL), one - w,
          (AL - 1, BE, MU - 1),
          "w(w-1)d_w+w(a+b-m+1)/2-a intertwines (1-w)-weighted (a,b,m)->(a-1,b,m-1)"),
        t(11, _first("w", w - one, s2), one - w, (AL + 1, BE, MU - 1),
          "(w-1)d_w+(a+b-m+1)/2 intertwines (1-w)-weighted (a,b,m)->(a+1,b,m-1)"),
        t(12, _first("w", w * (w - one), w * s1 - AL), one - w,
          (AL - 1, BE, MU + 1),
          "w(w-1)d_w+w(a+b+m+1)/2-a intertwines (1-w)-weighted (a,b,m)->(a-1,b,m+1)"),
    )

    def q(u, v_):
        """-(1/4) * u * v_."""
        return (u * v_).scale(Fraction(-1, 4))

    apm = AL + BE + MU   # a+b+m
    amm = AL + BE - MU
    dpm = AL - BE + MU
    dmm = AL - BE - MU

    def f(i, weight, left, right, const, pair, desc):
        return FactorizationRow(f"2f1:fact:{i:02d}", desc, weight, left, right,
                                const, pair)

    fact = (
        f(1, one,
          _first("w", w * (one - w), (one + AL) * (one - w) - (one + BE) * w),
          _first("w", one, MultiPoly()),
          q(apm + 1, amm + 1), None,
          "F = (w(1-w)d+(1+a)(1-w)-(1+b)w) o d - (a+b+m+1)(a+b-m+1)/4"),
        f(2, one,
          _first("w", one, MultiPoly()),
          _first("w", w * (one - w), AL * (one - w) - BE * w),
          q(apm - 1, amm - 1), ("2f1:fact:01", (AL - 1, BE - 1, MU)),
          "F = d o (w(1-w)d+a(1-w)-bw) - (a+b+m-1)(a+b-m-1)/4"),
        f(3, one,
          _first("w", w, AL + 1), _first("w", one - w, -BE),
          q(dpm + 1, dmm + 1), ("2f1:fact:04", (AL + 1, BE - 1, MU)),
          "F = (w d+a+1) o ((1-w)d-b) - (a-b+m+1)(a-b-m+1)/4"),
        f(4, one,
          _first("w", one - w, -BE - 1), _first("w", w, AL),
          q(dpm - 1, dmm - 1), None,
          "F = ((1-w)d-b-1) o (w d+a) - (a-b+m-1)(a-b-m-1)/4"),
        f(5, w,
          _first("w", w, (apm - 1).scale(HALF)),
          _first("w", w * (one - w), (one - w) * (amm + 1).scale(HALF) - BE),
          q(apm - 1, dmm + 1), ("2f1:fact:06", (AL, BE - 1, MU - 1)),
          "wF = (w d+(a+b+m-1)/2) o (w(1-w)d+(1-w)(a+b-m+1)/2-b) + c"),
        f(6, w,
          _first("w", w * (one - w), (one - w) * (amm + 1).scale(HALF) - BE - 1),
          _first("w", w, (apm + 1).scale(HALF)),
          q(apm + 1, dmm - 1), None,
          "wF = (w(1-w)d+(1-w)(a+b-m+1)/2-b-1) o (w d+(a+b+m+1)/2) + c"),
        f(7, w,
          _first("w", w, (amm - 1).scale(HALF)),
          _first("w", w * (one - w), (one - w) * (apm + 1).scale(HALF) - BE),
          q(amm - 1, dpm + 1), ("2f1:fact:08", (AL, BE - 1, MU + 1)),
          "wF = (w d+(a+b-m-1)/2) o (w(1-w)d+(1-w)(a+b+m+1)/2-b) + c"),
        f(8, w,
          _first("w", w * (one - w), (one - w) * (apm + 1).scale(HALF) - BE - 1),
          _first("w", w, (amm + 1).scale(HALF)),
          q(amm + 1, dpm - 1), None,
          "wF = (w(1-w)d+(1-w)(a+b+m+1)/2-b-1) o (w d+(a+b-m+1)/2) + c"),
        f(9, one - w,
          _first("w", w * (w - one), w * (amm + 1).scale(HALF) - AL - 1),
          _first("w", w - one, (apm + 1).scale(HALF)),
          ((apm + 1) * (dpm + 1)).scale(Fraction(1, 4)), None,
          "(1-w)F = (w(w-1)d+w(a+b-m+1)/2-a-1) o ((w-1)d+(a+b+m+1)/2) + (a+b+m+1)(a-b+m+1)/4"),
        f(10, one - w,
          _first("w", w - one, (apm - 1).scale(HALF)),
          _first("w", w * (w - one), w * (amm + 1).scale(HALF) - AL),
          ((apm - 1) * (dpm - 1)).scale(Fraction(1, 4)),
          ("2f1:fact:09", (AL - 1, BE, MU - 1)),
          "(1-w)F = ((w-1)d+(a+b+m-1)/2) o (w(w-1)d+w(a+b-m+1)/2-a) + (a+b+m-1)(a-b+m-1)/4"),
        f(11, one - w,
          _first("w", w * (w - one), w * (apm + 1).scale(HALF) - AL - 1),
          _first("w", w - one, (amm + 1).scale(HALF)),
          ((amm + 1) * (dmm + 1)).scale(Fraction(1, 4)), None,
          "(1-w)F = (w(w-1)d+w(a+b+m+1)/2-a-1) o ((w-1)d+(a+b-m+1)/2) + (a+b-m+1)(a-b-m+1)/4"),
        f(12, one - w,
          _first("w", w - one, (amm - 1).scale(HALF)),
          _first("w", w * (w - one), w * (apm + 1).scale(HALF) - AL),
          ((amm - 1) * (dmm - 1)).scale(Fraction(1, 4)),
          ("2f1:fact:11", (AL - 1, BE, MU + 1)),
          "(1-w)F = ((w-1)d+(a+b-m-1)/2) o (w(w-1)d+w(a+b+m+1)/2-a) + (a+b-m-1)(a-b-m-1)/4"),
    )

    ident = Substitution.moebius("w", "v", 1, 0, 0, 1)
    one_minus = Substitution.moebius("w", "v", -1, 1, 0, 1)
    inv = Substitution.moebius("w", "v", 0, 1, 1, 0)
    vm1_over_v = Substitution.moebius("w", "v", 1, -1, 1, 0)
    inv_1mv = Substitution.moebius("w", "v", 0, 1, -1, 1)
    v_over_vm1 = Substitution.moebius("w", "v", 1, 0, 1, -1)

    mv = RatFun(-_v())
    vm1 = RatFun(_v() - MultiPoly.const(1))
    rf1 = RatFun(MultiPoly.const(1))
    m1 = Multiplier.one("v")
    g_p = (AL + BE + MU + 1).scale(HALF)
    g_m = (AL + BE - MU + 1).scale(HALF)

    def s(i, sub, tgt, mult, pref, desc):
        return SymmetryRow(f"2f1:sym:{i:02d}", desc, sub, tgt, mult, pref)

    sym = (
        s(1, ident, (AL, BE, MU), m1, rf1, "w=v identity"),
        s(2, ident, (-AL, -BE, MU), _pow_mv(-AL) * _pow_vm1(-BE), rf1,
          "w=v with (-v)^-a (v-1)^-b sandwich, (-a,-b,m)"),
        s(3, ident, (AL, -BE, -MU), _pow_vm1(-BE), rf1,
          "w=v with (v-1)^-b sandwich, (a,-b,-m)"),
        s(4, ident, (-AL, BE, -MU), _pow_mv(-AL), rf1,
          "w=v with (-v)^-a sandwich, (-a,b,-m)"),
        s(5, one_minus, (BE, AL, MU), m1, rf1, "w=1-v, (b,a,m)"),
        s(6, one_minus, (-BE, -AL, MU), _pow_vm1(-AL) * _pow_mv(-BE), rf1,
          "w=1-v with (v-1)^-a (-v)^-b sandwich, (-b,-a,m)"),
        s(7, one_minus, (BE, -AL, -MU), _pow_vm1(-AL), rf1,
          "w=1-v with (v-1)^-a sandwich, (b,-a,-m)"),
        s(8, one_minus, (-BE, AL, -MU), _pow_mv(-BE), rf1,
          "w=1-v with (-v)^-b sandwich, (-b,a,-m)"),
        s(9, inv, (MU, BE, AL), _pow_mv(g_p), mv,
          "w=1/v, (-v)^((a+b+m+1)/2) sandwich of (-v)F_(m,b,a)"),
        s(10, inv, (-MU, -BE, AL), _pow_mv(g_m) * _pow_vm1(-BE), mv,
          "w=1/v, extra (v-1)^-b, (-m,-b,a)"),
        s(11, inv, (MU, -BE, -AL), _pow_mv(g_p) * _pow_vm1(-BE), mv,
          "w=1/v, extra (v-1)^-b, (m,-b,-a)"),
        s(12, inv, (-MU, BE, -AL), _pow_mv(g_m), mv,
          "w=1/v, (-v)^((a+b-m+1)/2) sandwich, (-m,b,-a)"),
        s(13, vm1_over_v, (MU, AL, BE), _pow_mv(g_p), mv,
          "w=(v-1)/v, (m,a,b)"),
        s(14, vm1_over_v, (-MU, -AL, BE), _pow_mv(g_m) * _pow_vm1(-AL), mv,
          "w=(v-1)/v, extra (v-1)^-a, (-m,-a,b)"),
        s(15, vm1_over_v, (MU, -AL, -BE), _pow_mv(g_p) * _pow_vm1(-AL), mv,
          "w=(v-1)/v, extra (v-1)^-a, (m,-a,-b)"),
        s(16, vm1_over_v, (-MU, AL, -BE), _pow_mv(g_m), mv,
          "w=(v-1)/v, (-m,a,-b)"),
        s(17, inv_1mv, (BE, MU, AL), _pow_vm1(g_p), vm1,
          "w=1/(1-v), (b,m,a)"),
        s(18, inv_1mv, (-BE, -MU, AL), _pow_mv(-BE) * _pow_vm1(g_m), vm1,
          "w=1/(1-v), extra (-v)^-b, (-b,-m,a)"),
        s(19, inv_1mv, (BE, -MU, -AL), _pow_vm1(g_m), vm1,
          "w=1/(1-v), (b,-m,-a)"),
        s(20, inv_1mv, (-BE, MU, -AL), _pow_mv(-BE) * _pow_vm1(g_p), vm1,
          "w=1/(1-v), extra (-v)^-b, (-b,m,-a)"),
        s(21, v_over_vm1, (AL, MU, BE), _pow_vm1(g_p), vm1,
          "w=v/(v-1), (a,m,b)"),
        s(22, v_over_vm1, (-AL, -MU, BE), _pow_mv(-AL) * _pow_vm1(g_m), vm1,
          "w=v/(v-1), extra (-v)^-a, (-a,-m,b)"),
        s(23, v_over_vm1, (AL, -MU, -BE), _pow_vm1(g_m), vm1,
          "w=v/(v-1), (a,-m,-b)"),
        s(24, v_over_vm1, (-AL, MU, -BE), _pow_mv(-AL) * _pow_vm1(g_p), vm1,
          "w=v/(v-1), extra (-v)^-a, (-a,m,-b)"),
    )

    hp = (AL + BE + MU + 1).scale(HALF)
    hm = (AL + BE - MU + 1).scale(HALF)

    def r(i, A, coeff, tgt, desc):
        return RecurrenceRow(f"2f1:rec:{i:02d}", desc, A, coeff, tgt, "I")

    rec = (
        r(1, _first("w", one, MultiPoly()), hp, (AL + 1, BE + 1, MU),
          "d_w FI -> ((1+a+b+m)/2) FI(a+1,b+1,m)"),
        r(2, _first("w", -w * (one - w), -(AL * (one - w) - BE * w)),
          (MultiPoly.const(1) - AL - BE + MU).scale(HALF), (AL - 1, BE - 1, MU),
          "-(w(1-w)d+a(1-w)-bw) FI -> ((1-a-b+m)/2) FI(a-1,b-1,m)"),
        r(3, _first("w", one - w, -BE),
          (MultiPoly.const(1) + AL - BE - MU).scale(HALF), (AL + 1, BE - 1, MU),
          "((1-w)d-b) FI -> ((1+a-b-m)/2) FI(a+1,b-1,m)"),
        r(4, _first("w", -w, -AL),
          (MultiPoly.const(1) - AL + BE - MU).scale(HALF), (AL - 1, BE + 1, MU),
          "-(w d+a) FI -> ((1-a+b-m)/2) FI(a-1,b+1,m)"),
        r(5, _first("w", w, hp), hp, (AL, BE + 1, MU + 1),
          "(w d+(1+a+b+m)/2) FI -> ((1+a+b+m)/2) FI(a,b+1,m+1)"),
        r(6, _first("w", -w * (w - one), -(BE + (w - one) * hm)),
          (MultiPoly.const(1) + AL - BE - MU).scale(HALF), (AL, BE - 1, MU - 1),
          "-(w(w-1)d+b+(w-1)(1+a+b-m)/2) FI -> ((1+a-b-m)/2) FI(a,b-1,m-1)"),
        r(7, _first("w", -w, -hm),
          (MultiPoly.const(1) - AL + BE - MU).scale(HALF), (AL, BE + 1, MU - 1),
          "-(w d+(1+a+b-m)/2) FI -> ((1-a+b-m)/2) FI(a,b+1,m-1)"),
        r(8, _first("w", w * (w - one), BE + (w - one) * hp),
          (MultiPoly.const(1) - AL - BE + MU).scale(HALF), (AL, BE - 1, MU + 1),
          "(w(w-1)d+b+(w-1)(1+a+b+m)/2) FI -> ((1-a-b+m)/2) FI(a,b-1,m+1)"),
        r(9, _first("w", w - one, hp), hp, (AL + 1, BE, MU + 1),
          "((w-1)d+(1+a+b+m)/2) FI -> ((1+a+b+m)/2) FI(a+1,b,m+1)"),
        r(10, _first("w", w * (w - one), -AL + w * hm),
           (MultiPoly.const(1) - AL + BE - MU).scale(HALF), (AL - 1, BE, MU - 1),
           "(w(w-1)d-a+w(1+a+b-m)/2) FI -> ((1-a+b-m)/2) FI(a-1,b,m-1)"),
        r(11, _first("w", w - one, hm),
           (MultiPoly.const(1) + AL - BE - MU).scale(HALF), (AL + 1, BE, MU - 1),
           "((w-1)d+(1+a+b-m)/2) FI -> ((1+a-b-m)/2) FI(a+1,b,m-1)"),
        r(12, _first("w", w * (w - one), -AL + w * hp),
           (MultiPoly.const(1) - AL - BE + MU).scale(HALF), (AL - 1, BE, MU + 1),
           "(w(w-1)d-a+w(1+a+b+m)/2) FI -> ((1-a-b+m)/2) FI(a-1,b,m+1)"),
    )

    return IdentityCatalog("2f1", trans, fact, sym, rec)


# ---------------------------------------------------------------------------
# Gegenbauer catalog
# ---------------------------------------------------------------------------

def _pow_v2m1(gamma) -> Multiplier:
    """(v^2-1)^gamma as (v-1)^gamma (v+1)^gamma."""
    g = MultiPoly.of(gamma)
    return Multiplier("v", [LinFactor(GaussRational(1), GaussRational(-1), g),
                            LinFactor(GaussRational(1), GaussRational(1), g)])


def _build_gegenbauer() -> IdentityCatalog:
    w = _w()
    one = MultiPoly.const(1)
    w2 = w * w
    omw2 = one - w2

    def t(i, A, weight, tgt, desc):
        return TransmutationRow(f"geg:trans:{i:02d}", desc, A, weight, tgt)

    ap_l = AL + LA + C(HALF)       # alpha+lam+1/2
    am_l = AL - LA + C(HALF)       # alpha-lam+1/2

    trans = (
        t(1, _first("w", one, MultiPoly()), one, (AL + 1, LA),
          "d_w intertwines (a,l)->(a+1,l)"),
        t(2, _first("w", omw2, AL.scale(-2) * w), one, (AL - 1, LA),
          "((1-w^2)d-2aw) intertwines (a,l)->(a-1,l)"),
        t(3, _first("w", omw2, -ap_l * w), omw2, (AL, LA + 1),
          "((1-w^2)d-(a+l+1/2)w) intertwines (1-w^2)-weighted (a,l)->(a,l+1)"),
        t(4, _first("w", omw2, -am_l * w), omw2, (AL, LA - 1),
          "((1-w^2)d-(a-l+1/2)w) intertwines (1-w^2)-weighted (a,l)->(a,l-1)"),
        t(5, _first("w", w, am_l), w2, (AL + 1, LA - 1),
          "(w d+a-l+1/2) intertwines w^2-weighted (a,l)->(a+1,l-1)"),
        t(6, _first("w", w * omw2, -AL + LA + C(HALF) - ap_l * w2), w2,
          (AL - 1, LA + 1),
          "(w(1-w^2)d-a+l+1/2-(a+l+1/2)w^2) intertwines w^2-weighted (a,l)->(a-1,l+1)"),
        t(7, _first("w", w, ap_l), w2, (AL + 1, LA + 1),
          "(w d+a+l+1/2) intertwines w^2-weighted (a,l)->(a+1,l+1)"),
        t(8, _first("w", w * omw2, -AL - LA + C(HALF) - am_l * w2), w2,
          (AL - 1, LA - 1),
          "(w(1-w^2)d-a-l+1/2-(a-l+1/2)w^2) intertwines w^2-weighted (a,l)->(a-1,l-1)"),
    )

    def f(i, weight, left, right, const, pair, desc):
        return FactorizationRow(f"geg:fact:{i:02d}", desc, weight, left, right,
                                const, pair)

    fact = (
        f(1, one, _first("w", one, MultiPoly()),
          _first("w", omw2, AL.scale(-2) * w),
          (AL + LA - C(HALF)) * (-AL + LA + C(HALF)),
          ("geg:fact:02", (AL - 1, LA)),
          "S = d o ((1-w^2)d-2aw) + (a+l-1/2)(-a+l+1/2)"),
        f(2, one, _first("w", omw2, (one + AL).scale(-2) * w),
          _first("w", one, MultiPoly()),
          (AL + LA + C(HALF)) * (-AL + LA - C(HALF)), None,
          "S = ((1-w^2)d-2(1+a)w) o d + (a+l+1/2)(-a+l-1/2)"),
        f(3, omw2, _first("w", omw2, -(AL + LA - C(HALF)) * w),
          _first("w", omw2, -am_l * w),
          -(AL + LA - C(HALF)) * am_l, ("geg:fact:04", (AL, LA - 1)),
          "(1-w^2)S = ((1-w^2)d-(a+l-1/2)w) o ((1-w^2)d-(a-l+1/2)w) - (a+l-1/2)(a-l+1/2)"),
        f(4, omw2, _first("w", omw2, -(AL - LA - C(HALF)) * w),
          _first("w", omw2, -ap_l * w),
          -ap_l * (AL - LA - C(HALF)), None,
          "(1-w^2)S = ((1-w^2)d-(a-l-1/2)w) o ((1-w^2)d-(a+l+1/2)w) - (a+l+1/2)(a-l-1/2)"),
        f(5, w2,
          _first("w", w * omw2, -AL - LA - C(Fraction(3, 2))
                 + (-AL + LA - C(HALF)) * w2),
          _first("w", w, ap_l),
          ap_l * (AL + LA + C(Fraction(3, 2))), None,
          "w^2 S = (w(1-w^2)d-a-l-3/2+(-a+l-1/2)w^2) o (w d+a+l+1/2) + c"),
        f(6, w2, _first("w", w, AL + LA - C(Fraction(3, 2))),
          _first("w", w * omw2, -AL - LA + C(HALF) + (-AL + LA - C(HALF)) * w2),
          (AL + LA - C(HALF)) * (AL + LA - C(Fraction(3, 2))),
          ("geg:fact:05", (AL - 1, LA - 1)),
          "w^2 S = (w d+a+l-3/2) o (w(1-w^2)d-a-l+1/2+(-a+l-1/2)w^2) + c"),
        f(7, w2,
          _first("w", w * omw2, -AL + LA - C(Fraction(3, 2))
                 + (-AL - LA - C(HALF)) * w2),
          _first("w", w, am_l),
          am_l * (AL - LA + C(Fraction(3, 2))), None,
          "w^2 S = (w(1-w^2)d-a+l-3/2+(-a-l-1/2)w^2) o (w d+a-l+1/2) + c"),
        f(8, w2, _first("w", w, AL - LA - C(Fraction(3, 2))),
          _first("w", w * omw2, -AL + LA + C(HALF) + (-AL - LA - C(HALF)) * w2),
          (AL - LA - C(HALF)) * (AL - LA - C(Fraction(3, 2))),
          ("geg:fact:07", (AL - 1, LA + 1)),
          "w^2 S = (w d+a-l-3/2) o (w(1-w^2)d-a+l+1/2+(-a-l-1/2)w^2) + c"),
    )

    ident = Substitution.moebius("w", "v", 1, 0, 0, 1)
    neg = Substitution.moebius("w", "v", -1, 0, 0, 1)
    rf1 = RatFun(MultiPoly.const(1))
    m1 = Multiplier.one("v")
    v2m1 = RatFun(_v() * _v() - MultiPoly.const(1))

    sym = (
        SymmetryRow("geg:sym:01", "w=v identity", ident, (AL, LA), m1, rf1),
        SymmetryRow("geg:sym:02", "w=-v, (a,-l)", neg, (AL, -LA), m1, rf1),
        SymmetryRow("geg:sym:03", "w=v, (v^2-1)^-a sandwich, (-a,-l)", ident,
                    (-AL, -LA), _pow_v2m1(-AL), rf1),
        SymmetryRow("geg:sym:04", "w=-v, (v^2-1)^-a sandwich, (-a,l)", neg,
                    (-AL, LA), _pow_v2m1(-AL), rf1),
        SymmetryRow("geg:sym:05",
                    "w=v/sqrt(v^2-1), (v^2-1)^((a+l+5/2)/2) sandwich, (l,a)",
                    None, (LA, AL), _pow_v2m1((AL + LA + C(HALF)).scale(HALF)),
                    v2m1, mode="numeric", algebraic_sign=1),
        SymmetryRow("geg:sym:06",
                    "w=-v/sqrt(v^2-1), (l,-a)",
                    None, (LA, -AL), _pow_v2m1((AL + LA + C(HALF)).scale(HALF)),
                    v2m1, mode="numeric", algebraic_sign=-1),
        SymmetryRow("geg:sym:07",
                    "w=v/sqrt(v^2-1), (v^2-1)^((a-l+5/2)/2) sandwich, (-l,-a)",
                    None, (-LA, -AL), _pow_v2m1((AL - LA + C(HALF)).scale(HALF)),
                    v2m1, mode="numeric", algebraic_sign=1),
        SymmetryRow("geg:sym:08",
                    "w=-v/sqrt(v^2-1), (-l,a)",
                    None, (-LA, AL), _pow_v2m1((AL - LA + C(HALF)).scale(HALF)),
                    v2m1, mode="numeric", algebraic_sign=-1),
    )

    def r(i, A, coeff, tgt, desc):
        return RecurrenceRow(f"geg:rec:{i:02d}", desc, A, coeff, tgt, "bold")

    rec = (
        r(1, _first("w", one, MultiPoly()),
          (am_l * ap_l).scale(Fraction(-1, 2)), (AL + 1, LA),
          "d_w S -> -(1/2)(1/2+a-l)(1/2+a+l) S(a+1,l)"),
        r(2, _first("w", omw2, AL.scale(-2) * w), C(-2), (AL - 1, LA),
          "((1-w^2)d-2aw) S -> -2 S(a-1,l)"),
        r(3, _first("w", omw2, -ap_l * w), -ap_l, (AL, LA + 1),
          "((1-w^2)d-(1/2+a+l)w) S -> -(1/2+a+l) S(a,l+1)"),
        r(4, _first("w", omw2, -am_l * w), -am_l, (AL, LA - 1),
          "((1-w^2)d-(1/2+a-l)w) S -> -(1/2+a-l) S(a,l-1)"),
        r(5, _first("w", w, am_l),
          (am_l * (am_l + 1)).scale(HALF), (AL + 1, LA - 1),
          "(w d+1/2+a-l) S -> (1/2)(1/2+a-l)(3/2+a-l) S(a+1,l-1)"),
        r(6, _first("w", w * omw2, (C(HALF) - AL + LA) * omw2 - AL.scale(2) * w2),
          C(-2), (AL - 1, LA + 1),
          "(w(1-w^2)d+(1/2-a+l)(1-w^2)-2aw^2) S -> -2 S(a-1,l+1)"),
        r(7, _first("w", w, ap_l),
          (ap_l * (ap_l + 1)).scale(HALF), (AL + 1, LA + 1),
          "(w d+1/2+a+l) S -> (1/2)(1/2+a+l)(3/2+a+l) S(a+1,l+1)"),
        r(8, _first("w", w * omw2, (C(HALF) - AL - LA) * omw2 - AL.scale(2) * w2),
          C(-2), (AL - 1, LA - 1),
          "(w(1-w^2)d+(1/2-a-l)(1-w^2)-2aw^2) S -> -2 S(a-1,l-1)"),
    )

    return IdentityCatalog("gegenbauer", trans, fact, sym, rec)


# ---------------------------------------------------------------------------
# Confluent (1F1) catalog
# ---------------------------------------------------------------------------

def _build_1f1() -> IdentityCatalog:
    w = _w()
    one = MultiPoly.const(1)

    def t(i, A, weight, tgt, desc):
        return TransmutationRow(f"1f1:trans:{i:02d}", desc, A, weight, tgt)

    trans = (
        t(1, _first("w", one, MultiPoly()), one, (TH + 1, AL + 1),
          "d_w intertwines (t,a)->(t+1,a+1)"),
        t(2, _first("w", w, AL - w), one, (TH - 1, AL - 1),
          "(w d+a-w) intertwines (t,a)->(t-1,a-1)"),
        t(3, _first("w", w, AL), one, (TH + 1, AL - 1),
          "(w d+a) intertwines (t,a)->(t+1,a-1)"),
        t(4, _first("w", one, C(-1)), one, (TH - 1, AL + 1),
          "(d-1) intertwines (t,a)->(t-1,a+1)"),
        t(5, _first("w", w, (TH + AL + 1).scale(HALF)), w, (TH + 2, AL),
          "(w d+(t+a+1)/2) intertwines w-weighted (t,a)->(t+2,a)"),
        t(6, _first("w", w, (-TH + AL + 1).scale(HALF) - w), w, (TH - 2, AL),
          "(w d+(-t+a+1)/2-w) intertwines w-weighted (t,a)->(t-2,a)"),
    )

    def f(i, weight, left, right, const, pair, desc):
        return FactorizationRow(f"1f1:fact:{i:02d}", desc, weight, left, right,
                                const, pair)

    fact = (
        f(1, one, _first("w", one, C(-1)), _first("w", w, AL),
          (TH - AL + 1).scale(Fraction(-1, 2)), ("1f1:fact:02", (TH + 1, AL - 1)),
          "F = (d-1) o (w d+a) - (t-a+1)/2"),
        f(2, one, _first("w", w, one + AL), _first("w", one, C(-1)),
          (TH - AL - 1).scale(Fraction(-1, 2)), None,
          "F = (w d+1+a) o (d-1) - (t-a-1)/2"),
        f(3, one, _first("w", one, MultiPoly()), _first("w", w, AL - w),
          (TH + AL - 1).scale(Fraction(-1, 2)), ("1f1:fact:04", (TH - 1, AL - 1)),
          "F = d o (w d+a-w) - (t+a-1)/2"),
        f(4, one, _first("w", w, one + AL - w), _first("w", one, MultiPoly()),
          (TH + AL + 1).scale(Fraction(-1, 2)), None,
          "F = (w d+1+a-w) o d - (t+a+1)/2"),
        f(5, w, _first("w", w, (-TH + AL - 1).scale(HALF) - w),
          _first("w", w, (TH + AL + 1).scale(HALF)),
          ((-TH + AL - 1) * (TH + AL + 1)).scale(Fraction(-1, 4)),
          ("1f1:fact:06", (TH + 2, AL)),
          "wF = (w d+(-t+a-1)/2-w) o (w d+(t+a+1)/2) - (-t+a-1)(t+a+1)/4"),
        f(6, w, _first("w", w, (TH + AL - 1).scale(HALF)),
          _first("w", w, (-TH + AL + 1).scale(HALF) - w),
          ((-TH + AL + 1) * (TH + AL - 1)).scale(Fraction(-1, 4)), None,
          "wF = (w d+(t+a-1)/2) o (w d+(-t+a+1)/2-w) - (-t+a+1)(t+a-1)/4"),
    )

    ident = Substitution.moebius("w", "v", 1, 0, 0, 1)
    neg = Substitution.moebius("w", "v", -1, 0, 0, 1)
    rf1 = RatFun(MultiPoly.const(1))
    m1 = Multiplier.one("v")
    pow_v = Multiplier.power("v", 1, 0, -AL)    # v^-a
    e_neg = Multiplier.exp("v", 0, -1, 0)       # e^-v

    sym = (
        SymmetryRow("1f1:sym:01", "w=v identity", ident, (TH, AL), m1, rf1),
        SymmetryRow("1f1:sym:02", "w=v, v^-a sandwich, (t,-a)", ident,
                    (TH, -AL), pow_v, rf1),
        SymmetryRow("1f1:sym:03",
                    "w=-v, -e^-v sandwich, (-t,a) (1st Kummer transformation)",
                    neg, (-TH, AL), e_neg, rf1, sign=-1),
        SymmetryRow("1f1:sym:04", "w=-v, -e^-v v^-a sandwich, (-t,-a)", neg,
                    (-TH, -AL), e_neg * pow_v, rf1, sign=-1),
    )

    def r(i, A, coeff, tgt, desc):
        return RecurrenceRow(f"1f1:rec:{i:02d}", desc, A, coeff, tgt, "bold")

    rec = (
        r(1, _first("w", one, MultiPoly()), (TH + AL + 1).scale(HALF),
          (TH + 1, AL + 1), "d_w bF -> ((1+t+a)/2) bF(t+1,a+1)"),
        r(2, _first("w", w, AL - w), one, (TH - 1, AL - 1),
          "(w d+a-w) bF -> bF(t-1,a-1)"),
        r(3, _first("w", w, AL), one, (TH + 1, AL - 1),
          "(w d+a) bF -> bF(t+1,a-1)"),
        r(4, _first("w", one, C(-1)), (TH - AL - 1).scale(HALF),
          (TH - 1, AL + 1), "(d-1) bF -> ((-1+t-a)/2) bF(t-1,a+1)"),
        r(5, _first("w", w, (TH + AL + 1).scale(HALF)),
          (TH + AL + 1).scale(HALF), (TH + 2, AL),
          "(w d+(1+t+a)/2) bF -> ((1+t+a)/2) bF(t+2,a)"),
        r(6, _first("w", w, (-TH + AL + 1).scale(HALF) - w),
          (-TH + AL + 1).scale(HALF), (TH - 2, AL),
          "(w d+(1-t+a)/2-w) bF -> ((1-t+a)/2) bF(t-2,a)"),
    )

    return IdentityCatalog("1f1", trans, fact, sym, rec)


# ---------------------------------------------------------------------------
# Hermite catalog
# ---------------------------------------------------------------------------

def _build_hermite() -> IdentityCatalog:
    w = _w()
    one = MultiPoly.const(1)
    w2 = w * w

    def t(i, A, weight, tgt, desc):
        return TransmutationRow(f"herm:trans:{i:02d}", desc, A, weight, tgt)

    trans = (
        t(1, _first("w", one, MultiPoly()), one, (LA + 1,),
          "d_w intertwines l->l+1"),
        t(2, _first("w", one, w.scale(-2)), one, (LA - 1,),
          "(d-2w) intertwines l->l-1"),
        t(3, _first("w", w, LA + C(HALF)), w2, (LA + 2,),
          "(w d+l+1/2) intertwines w^2-weighted l->l+2"),
        t(4, _first("w", w, -LA + C(HALF) - w2.scale(2)), w2, (LA - 2,),
          "(w d-l+1/2-2w^2) intertwines w^2-weighted l->l-2"),
    )

    def f(i, weight, left, right, const, pair, desc):
        return FactorizationRow(f"herm:fact:{i:02d}", desc, weight, left, right,
                                const, pair)

    fact = (
        f(1, one, _first("w", one, w.scale(-2)), _first("w", one, MultiPoly()),
          LA.scale(-2) - one, ("herm:fact:02", (LA - 1,)),
          "S = (d-2w) o d - 2l - 1"),
        f(2, one, _first("w", one, MultiPoly()), _first("w", one, w.scale(-2)),
          LA.scale(-2) + one, None,
          "S = d o (d-2w) - 2l + 1"),
        f(3, w2, _first("w", w, LA - C(Fraction(3, 2))),
          _first("w", w, -LA + C(HALF) - w2.scale(2)),
          (LA - C(Fraction(3, 2))) * (LA - C(HALF)), None,
          "w^2 S = (w d+l-3/2) o (w d-l+1/2-2w^2) + (l-3/2)(l-1/2)"),
        f(4, w2, _first("w", w, -LA - C(Fraction(3, 2)) - w2.scale(2)),
          _first("w", w, LA + C(HALF)),
          (LA + C(Fraction(3, 2))) * (LA + C(HALF)),
          ("herm:fact:03", (LA + 2,)),
          "w^2 S = (w d-l-3/2-2w^2) o (w d+l+1/2) + (l+3/2)(l+1/2)"),
    )

    ident = Substitution.moebius("w", "v", 1, 0, 0, 1)
    neg = Substitution.moebius("w", "v", -1, 0, 0, 1)
    i_pos = Substitution.moebius("w", "v", GaussRational(0, 1), 0, 0, 1)
    i_neg = Substitution.moebius("w", "v", GaussRational(0, -1), 0, 0, 1)
    rf1 = RatFun(MultiPoly.const(1))
    m1 = Multiplier.one("v")
    e_nv2 = Multiplier.exp("v", 0, 0, -1)    # e^{-v^2}

    sym = (
        SymmetryRow("herm:sym:01", "w=v identity", ident, (LA,), m1, rf1),
        SymmetryRow("herm:sym:02", "w=-v invariance", neg, (LA,), m1, rf1),
        SymmetryRow("herm:sym:03", "w=iv, -e^{-v^2} sandwich, -l", i_pos,
                    (-LA,), e_nv2, rf1, sign=-1),
        SymmetryRow("herm:sym:04", "w=-iv, -e^{-v^2} sandwich, -l", i_neg,
                    (-LA,), e_nv2, rf1, sign=-1),
    )

    def r(i, A, coeff, tgt, desc):
        return RecurrenceRow(f"herm:rec:{i:02d}", desc, A, coeff, tgt, "plain")

    rec = (
        r(1, _first("w", one, MultiPoly()), -(C(HALF) + LA), (LA + 1,),
          "d_w S -> -(1/2+l) S(l+1)"),
        r(2, _first("w", one, w.scale(-2)), C(-2), (LA - 1,),
          "(d-2w) S -> -2 S(l-1)"),
        r(3, _first("w", w, C(HALF) + LA),
          ((C(HALF) + LA) * (C(Fraction(3, 2)) + LA)).scale(HALF), (LA + 2,),
          "(w d+1/2+l) S -> (1/2)(1/2+l)(3/2+l) S(l+2)"),
        r(4, _first("w", w, C(HALF) - LA - w2.scale(2)), C(-2), (LA - 2,),
          "(w d+1/2-l-2w^2) S -> -2 S(l-2)"),
    )

    return IdentityCatalog("hermite", trans, fact, sym, rec)


# ---------------------------------------------------------------------------
# 0F1 catalog
# ---------------------------------------------------------------------------

def _build_0f1() -> IdentityCatalog:
    w = _w()
    one = MultiPoly.const(1)

    trans = (
        TransmutationRow("0f1:trans:01", "d_w intertwines a->a+1",
                         _first("w", one, MultiPoly()), one, (AL + 1,)),
        TransmutationRow("0f1:trans:02", "(w d+a) intertwines a->a-1",
                         _first("w", w, AL), one, (AL - 1,)),
    )

    fact = (
        FactorizationRow("0f1:fact:01", "F = (w d+a+1) o d - 1", one,
                         _first("w", w, AL + 1), _first("w", one, MultiPoly()),
                         C(-1), ("0f1:fact:02", (AL + 1,))),
        FactorizationRow("0f1:fact:02", "F = d o (w d+a) - 1", one,
                         _first("w", one, MultiPoly()), _first("w", w, AL),
                         C(-1), None),
    )

    ident = Substitution.moebius("w", "v", 1, 0, 0, 1)
    sym = (
        SymmetryRow("0f1:sym:01", "w^-a sandwich, -a", ident, (-AL,),
                    Multiplier.power("v", 1, 0, -AL), RatFun(MultiPoly.const(1))),
    )

    rec = (
        RecurrenceRow("0f1:rec:01", "d_w bF -> bF(a+1)",
                      _first("w", one, MultiPoly()), one, (AL + 1,), "bold"),
        RecurrenceRow("0f1:rec:02", "(w d+a) bF -> bF(a-1)",
                      _first("w", w, AL), one, (AL - 1,), "bold"),
    )

    return IdentityCatalog("0f1", trans, fact, sym, rec)


_CATALOGS: dict[str, IdentityCatalog] = {}


def catalog(family: str) -> IdentityCatalog:
    """The full transcribed identity catalog of a family (cached singleton)."""
    if family == "2f0":
        raise ValueError("the 2f0 family is covered via its links to 1f1")
    if family not in _CATALOGS:
        builder = {
            "2f1": _build_2f1,
            "gegenbauer": _build_gegenbauer,
            "1f1": _build_1f1,
            "hermite": _build_hermite,
            "0f1": _build_0f1,
        }[family]
        _CATALOGS[family] = builder()
    return _CATALOGS[family]


# ---------------------------------------------------------------------------
# Quadratic links
# ---------------------------------------------------------------------------

def quadratic_links() -> tuple[QuadraticLink, ...]:
    """The six exact quadratic/Moebius links between families."""
    v = _v()
    one = MultiPoly.const(1)
    rf1 = RatFun(one)
    m1 = Multiplier.one("v")
    sq = Substitution.quadratic("w", "v", 1, 0)          # w = v^2
    return (
        QuadraticLink(
            "link:geg-2f1:plain",
            "S(a,l) in v equals 4 F(-1/2,a,l) in w=v^2",
            "2f1", (C(Fraction(-1, 2)), AL, LA), Fraction(4), sq,
            "gegenbauer", (AL, LA), m1, rf1),
        QuadraticLink(
            "link:geg-2f1:conj",
            "v^-1 S(a,l) v equals 4 F(1/2,a,l) in w=v^2",
            "2f1", (C(HALF), AL, LA), Fraction(4), sq,
            "gegenbauer", (AL, LA), Multiplier.power("v", 1, 0, one), rf1),
        QuadraticLink(
            "link:herm-1f1:plain",
            "S(l) in v equals 4 F(l,-1/2) in w=v^2",
            "1f1", (LA, C(Fraction(-1, 2))), Fraction(4), sq,
            "hermite", (LA,), m1, rf1),
        QuadraticLink(
            "link:herm-1f1:conj",
            "v^-1 S(l) v equals 4 F(l,1/2) in w=v^2",
            "1f1", (LA, C(HALF)), Fraction(4), sq,
            "hermite", (LA,), Multiplier.power("v", 1, 0, one), rf1),
        QuadraticLink(
            "link:1f1-2f0",
            "(-z)^((3+a+t)/2) Ft(t,a) (-z)^(-(1+a+t)/2) equals F(t,a), z=-1/w",
            "1f1", (TH, AL), Fraction(1),
            Substitution.moebius("w", "v", 0, -1, 1, 0),   # w = -1/v
            "2f0", (TH, AL),
            Multiplier.power("v", -1, 0, -(TH + AL + one).scale(HALF)),
            RatFun(-v)),
        QuadraticLink(
            "link:0f1-1f1",
            "F0F1(a) in w equals (4/v) e^{-v/2} F1F1(0,2a) e^{v/2}, w=(v/4)^2",
            "0f1", (AL,), Fraction(1),
            Substitution.quadratic("w", "v", Fraction(1, 16), 0),
            "1f1", (MultiPoly(), AL.scale(2)),
            Multiplier.exp("v", 0, HALF, 0),
            RatFun(MultiPoly.const(4), v)),
    )
