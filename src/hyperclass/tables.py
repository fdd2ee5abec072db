"""Tables that both the numeric layer and the exact catalog read.

* ``FAMILIES`` and ``PARAMS`` — the five families, each with its Lie and
  classical parameter names and ``classical_to_lie``, the map between
  them.  The CLI, `numerics`, `families` and `verify` all read them.
* ``_W_D3`` and ``_KUMMER`` — the Weyl group W(D3) of the 2F1 equation as
  Kummer's 24 solutions.  `numerics` evaluates them (Kummer's table and
  the 2F1 continuation routes); `families` generates the 2F1 symmetry rows
  from them.
* ``INTEGRAL_REPS`` — the id and paper location of every printed integral
  representation.  The catalog lists them; `quadrature`'s row builders
  take each row's description from here.

Standard library only: neither `numerics` nor `families` imports the
other, and a catalog listing loads no numeric code.
"""

from __future__ import annotations

from typing import Callable, NamedTuple


# --- The five families and their parameters ----------------------------------
# The paper works in the Lie-algebraic parameters: a root shifts them by
# integers and a Weyl element permutes them with signs (arXiv:1906.03512).
# The classical a, b, c are affine images of them.
class Params(NamedTuple):
    """A family's Lie and classical parameter names, each in its order, and
    the map from classical values to the Lie ones."""
    lie: tuple
    classical: tuple
    to_lie: Callable


# family -> its parameters, in the order the suites take the families
PARAMS = {
    "2f1": Params(("alpha", "beta", "mu"), ("a", "b", "c"),
                  lambda a, b, c: (c - 1, a + b - c, a - b)),
    "gegenbauer": Params(("alpha", "lam"), ("a", "b"),
                         lambda a, b: ((a + b - 1) / 2, (b - a) / 2)),
    "1f1": Params(("theta", "alpha"), ("a", "c"),
                  lambda a, c: (2 * a - c, c - 1)),
    "hermite": Params(("lam",), ("a",), lambda a: (a - 0.5,)),
    "0f1": Params(("alpha",), ("c",), lambda c: (c - 1,)),
}

FAMILIES = tuple(PARAMS)


def classical_to_lie(family: str, values) -> tuple:
    """The Lie parameters of the family member whose classical parameters
    are `values`, in the order of ``PARAMS[family].classical``.  An unknown
    family raises KeyError and a wrong number of values ValueError."""
    params = PARAMS[family]
    if len(values) != len(params.classical):
        raise ValueError(f"{family} takes the classical parameters "
                         f"{params.classical}, got {len(values)} values")
    return params.to_lie(*values)


# --- W(D3): Kummer's 24 solutions -------------------------------------------
# The discrete symmetries of the 2F1 equation are the Weyl group W(D3), the 24
# signed permutations of p = (alpha, beta, mu) with an even number of sign
# changes.  An element lists the slots of p' = sigma(p): +-k puts +-p_k there
# (1: alpha, 2: beta, 3: mu), so slot j holds +-p_{pi(j)}.  It gives the
# solution F_p(w) = w^x (1-w)^y F_{p'}(z), where z(w) is the anharmonic map
# sending the singular point pi(j) to j (slots 0, 1, 2 are the points 0, 1,
# infinity).  Four per solution, as in Kummer's table (DLMF 15.10(ii)).
_W_D3 = {
    "at0_1": ((1, 2, 3), (1, -2, -3), (1, -3, -2), (1, 3, 2)),
    "at0_2": ((-1, 2, -3), (-1, -2, 3), (-1, -3, 2), (-1, 3, -2)),
    "at1_1": ((2, 1, 3), (2, -1, -3), (2, -3, -1), (2, 3, 1)),
    "at1_2": ((-2, 1, -3), (-2, -1, 3), (-2, 3, -1), (-2, -3, 1)),
    "atinf_1": ((3, 2, 1), (3, -2, -1), (3, 1, 2), (3, -1, -2)),
    "atinf_2": ((-3, 2, -1), (-3, -2, 1), (-3, 1, -2), (-3, -1, 2)),
}

# pi, as the points held by slots 0-2 (2 is infinity) -> z(w)
_MOEBIUS = {
    (0, 1, 2): lambda w: w,
    (0, 2, 1): lambda w: w / (w - 1),
    (1, 0, 2): lambda w: 1 - w,
    (1, 2, 0): lambda w: 1 - 1 / w,
    (2, 1, 0): lambda w: 1 / w,
    (2, 0, 1): lambda w: 1 / (1 - w),
}


def _kummer_element(slots) -> tuple:
    """(slots, z(w), ((j, base, d_0, ks), ...)) for a W(D3) element.

    S_j(q), the sum of the local exponents of F_q at the point j, is -alpha,
    -beta and 1+alpha+beta of q at 0, 1 and infinity.  The prefactor moves
    it at w = 0 from S_{pi^-1(0)}(p') to S_0(p), and likewise at w = 1, so
    x = (S_0(p) - S_{pi^-1(0)}(p'))/2 and y = (S_1(p) - S_{pi^-1(1)}(p'))/2.
    An exponent is held doubled, as the integer d_0 and the signed slots ks
    of the parameters to add to it, one slot per unit of a coefficient: x =
    (-1 - al - be + mu)/2 is (-1, (-1, -2, 3)), summed in that order as
    written, and x = -al is (0, (-1, -1)).  A zero exponent is left out.
    j is the point of the factor, 0 for w^x and 1 for (1-w)^y; the base of
    w^x is -w when pi(0) is infinity."""
    perm = tuple(abs(k) - 1 for k in slots)
    al, be, _ = ([k // abs(k) if i == abs(k) else 0 for i in range(4)]
                 for k in slots)
    sums = ([-c for c in al], [-c for c in be],
            [(i == 0) + a + b for i, (a, b) in enumerate(zip(al, be))])
    bases = ((lambda w: -w) if perm[0] == 2 else (lambda w: w), lambda w: 1 - w)
    factors = []
    for j, base in enumerate(bases):
        d = [-(i == j + 1) - s for i, s in enumerate(sums[perm.index(j)])]
        if any(d):
            factors.append((j, base, d[0], tuple(
                k if c > 0 else -k for k, c in enumerate(d) if k
                for _ in range(abs(c)))))
    return slots, _MOEBIUS[perm], tuple(factors)


_KUMMER = {key: tuple(map(_kummer_element, elems))
           for key, elems in _W_D3.items()}


# --- The integral representations --------------------------------------------

class IntegralRep(NamedTuple):
    """The id and the paper location of one integral representation."""
    id: str
    location: str


def _reps(prefix: str, *locations: str) -> tuple:
    """The rows "<prefix>:int:01", ... with these locations, in order."""
    return tuple(IntegralRep(f"{prefix}:int:{i:02d}", loc)
                 for i, loc in enumerate(locations, 1))


# family -> its rows, in the order of quadrature's row builders
INTEGRAL_REPS = {
    "2f1": _reps(
        "2f1",
        "[1,inf) Euler integral -> FI(al,be,mu)(w)",
        "[0,w] integral -> w^-al FI(-al,be,-mu)(w)",
        "[w,0] integral -> (-w)^-al FI(-al,be,-mu)(w)",
        "(-inf,0] integral -> FI(be,al,mu)(1-w)",
        "[w,1] integral -> (1-w)^-be FI(-be,al,-mu)(1-w)",
        "[1,w] integral -> (w-1)^-be FI(-be,al,-mu)(1-w)",
        "[w,inf) integral -> w^((-1-al-be+mu)/2) FI(-mu,be,-al)(1/w)",
        "(-inf,w] integral -> (-w)^((-1-al-be+mu)/2) FI(-mu,be,-al)(1/w)",
        "[0,1] integral -> (-w)^((-1-al-be-mu)/2) FI(mu,be,al)(1/w)",
        "[0,1] integral -> w^((-1-al-be-mu)/2) FI(mu,be,al)(1/w)"),
    "gegenbauer": _reps(
        "geg",
        "type a, (-inf,-1] -> SI(al,la)(w)",
        "type a, [w,1] with (t-w)^(-1/2-al+la) -> (1-w^2)^-al SI(-al,la)(w)",
        "type a, [-1,1] -> (w^2-1)^((-1-2al+2la)/4) "
        "S0(-la,al)(w/sqrt(w^2-1))",
        "type a, [w,inf) -> (w^2-1)^((-1-2al-2la)/4) "
        "SII(la,al)(w/sqrt(w^2-1))",
        "type b, [0,inf) -> SII(al,la)(w)",
        "type b, between the roots -> i (1-w^2)^-al S0(-al,-la)(w)",
        "type b, [root,0] -> (w^2-1)^((-1-2al+2la)/4) "
        "SI(-la,al)(w/sqrt(w^2-1))",
        "type b, (-inf,-root] -> (w^2-1)^(-1/4-al/2-la/2) "
        "SI(la,al)(w/sqrt(w^2-1))"),
    "1f1": _reps(
        "1f1",
        "loop around 0 and w of t^p e^t (t-w)^r / 2 pi i -> bold-F(th,al)(w)",
        "[0,w] -> w^-al FI(th,-al)(w)",
        "[w,0] -> (-w)^-al FI(th,-al)(w)",
        "(-inf,0] Laplace -> w^((-1-th-al)/2) tilde-FI(th,al)(-1/w)",
        "(-inf,w] Laplace -> e^w (-w)^((-1+th-al)/2) tilde-FI(-th,al)(1/w)",
        "[1,inf) -> FI(th,al)(w)",
        "keyhole (0-0)^+ -> w^-al bold-F(th,-al)(w)",
        "(-inf,0] -> w^((-1-th-al)/2) tilde-FI(th,-al)(-1/w)",
        "[0,1] -> e^w (-w)^((-1+th-al)/2) tilde-FI(-th,-al)(1/w)"),
    "hermite": _reps(
        "herm",
        "vertical line left of w of e^{t^2}(w-t)^{-la-1/2} "
        "-> sqrt(pi) S_la(w)",
        "[w, i inf) of e^{t^2}(-i(t-w))^{-la-1/2} -> e^{w^2} S^I_{-la}(-iw)",
        "[0,inf) of e^{-t^2-2tw} t^{la-1/2} -> S^I_la(w)",
        "real axis bypassing 0 below of e^{-t^2-2tw}(it)^{la-1/2} "
        "-> sqrt(pi) e^{w^2} S_{-la}(-iw)"),
    "0f1": _reps(
        "0f1",
        "double ray around 0 of e^t e^{w/t} t^{-al-1} / 2 pi i "
        "-> bold-F_al(w)",
        "keyhole (0-0)^+ of e^t e^{w/t} t^{-al-1} / 2 pi i "
        "-> w^-al bold-F_{-al}(w)",
        "(-inf,0] of e^t e^{w/t}(-t)^{-al-1} -> sqrt(pi) tilde-F_al(w)",
        "Poisson [-1,1] -> Gamma(al+1/2) sqrt(pi) bold-F_al(w)",
        "Poisson [-sqrt w, sqrt w] -> Gamma(-al+1/2) sqrt(pi) w^-al "
        "bold-F_{-al}(w)",
        "Poisson (-inf,-1] -> (1/2) Gamma(al+1/2) tilde-F_al(w)",
        "Poisson (-inf,-sqrt w] -> (1/2) Gamma(-al+1/2) tilde-F_al(w)"),
}
