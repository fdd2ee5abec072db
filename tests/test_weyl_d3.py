"""The W(D3) table of numerics, which generates Kummer's 24 solutions of
the 2F1 equation and its continuation routes: a group of signed
permutations acting on w through the anharmonic maps, and the same 24
elements as the transcribed symmetry rows of the families catalog."""

from fractions import Fraction
from itertools import product

from hyperclass import numerics as N
from hyperclass.exactalg import GaussRational, MultiPoly
from hyperclass.families import catalog

ELEMENTS = [e for elems in N._W_D3.values() for e in elems]
# signed slots -> (slots, z(w), prefactor), as numerics derives them
DERIVED = {el[0]: el for els in N._KUMMER.values() for el in els}
# rational points off 0, 1 and the poles of every anharmonic map
POINTS = (Fraction(2, 7), Fraction(-5, 3), Fraction(9, 4))
ANHARMONIC = (lambda w: w, lambda w: 1 - w, lambda w: 1 / w,
              lambda w: 1 / (1 - w), lambda w: w / (w - 1),
              lambda w: 1 - 1 / w)


def compose(a, b):
    """The element p -> a(b(p)) of two elements in signed-slot form."""
    return tuple((1 if k > 0 else -1) * b[abs(k) - 1] for k in a)


def perm(e) -> tuple:
    """pi: the point (0, 1, 2 = infinity) that each slot's entry holds."""
    return tuple(abs(k) - 1 for k in e)


def moebius(e):
    return DERIVED[e][1]


def at_points(f) -> tuple:
    return tuple(f(w) for w in POINTS)


# ---------------------------------------------------------------------------
# The group
# ---------------------------------------------------------------------------

def test_elements_are_24_distinct_signed_permutations():
    assert len(ELEMENTS) == 24 == len(set(ELEMENTS))
    for e in ELEMENTS:
        assert sorted(abs(k) for k in e) == [1, 2, 3]


def test_elements_have_an_even_number_of_sign_changes():
    for e in ELEMENTS:
        assert sum(k < 0 for k in e) % 2 == 0, e


def test_elements_close_under_composition():
    table = set(ELEMENTS)
    for a, b in product(ELEMENTS, repeat=2):
        assert compose(a, b) in table, (a, b)


def test_moebius_map_is_a_homomorphism_onto_the_anharmonic_maps():
    # F_p(w) ~ F_{b(p)}(z_b(w)) ~ F_{a(b(p))}(z_a(z_b(w)))
    for a, b in product(ELEMENTS, repeat=2):
        za, zb, zab = moebius(a), moebius(b), moebius(compose(a, b))
        for w in POINTS:
            assert zab(w) == za(zb(w)), (a, b, w)
    assert {at_points(moebius(e)) for e in ELEMENTS} \
        == {at_points(f) for f in ANHARMONIC}


# ---------------------------------------------------------------------------
# The transcribed symmetry rows as the oracle
# ---------------------------------------------------------------------------

SYMBOLS = (MultiPoly.const(1),) + tuple(
    MultiPoly.var(n) for n in ("alpha", "beta", "mu"))


def target(e) -> tuple:
    return tuple(SYMBOLS[abs(k)].scale(1 if k > 0 else -1) for k in e)


def prefactor_exponents(element) -> tuple:
    """The exponents at w = 0, 1 and infinity of the prefactor
    (+-w)^x (1-w)^y of a _KUMMER element: x, y and -(x + y), as MultiPoly,
    read exactly from the table's doubled form (d_0, signed slots).  The
    base of the w-factor is -w when the element takes infinity to 0."""
    slots, _, factors = element
    x = y = MultiPoly()
    w = Fraction(2, 7)
    for base, d0, ks in factors:
        poly = MultiPoly.const(Fraction(d0, 2))
        for k in ks:
            poly = poly + SYMBOLS[abs(k)].scale(Fraction(1 if k > 0 else -1, 2))
        if base(w) == 1 - w:
            y = poly
        else:
            assert base(w) == (-w if perm(slots)[0] == 2 else w)
            x = poly
    return x, y, -(x + y)


def multiplier_exponents(row) -> tuple:
    """The exponents of the row's multiplier at v = 0, the (-v) factor, and
    at v = 1, the (v-1) factor."""
    mult = row.mult
    assert all(c.is_zero() for c in mult.exp_part)
    got = {}
    for f in mult.factors:
        key = (f.a, f.b)
        assert key in ((GaussRational(-1), GaussRational(0)),
                       (GaussRational(1), GaussRational(-1))), row.id
        got[key] = got.get(key, MultiPoly()) + f.gamma
    return (got.get((GaussRational(-1), GaussRational(0)), MultiPoly()),
            got.get((GaussRational(1), GaussRational(-1)), MultiPoly()))


def substitute(sub, v: Fraction) -> Fraction:
    p, q, r, s = (c.re for c in sub.data)
    assert all(c.im == 0 for c in sub.data)
    return (p * v + q) / (r * v + s)


def test_symmetry_rows_are_the_table_elements():
    rows = catalog("2f1").symmetries
    by_target = {target(e): el for e, el in DERIVED.items()}
    assert len(rows) == 24
    assert {row.target for row in rows} == set(by_target)
    for row in rows:
        element = by_target[row.target]
        pi = perm(element[0])
        # w = sub(v) inverts the element's z(w)
        for v in POINTS:
            assert element[1](substitute(row.sub, v)) == v, row.id
        # v = 0 and v = 1 are the images of w = pi(0) and w = pi(1)
        at = prefactor_exponents(element)
        assert multiplier_exponents(row) == (at[pi[0]], at[pi[1]]), row.id
