"""The W(D3) table of numerics, which generates Kummer's 24 solutions of
the 2F1 equation, its continuation routes and the symmetry rows of the
families catalog: a group of signed permutations acting on w through the
anharmonic maps, and on the roots of D3, the transmutation shifts."""

from fractions import Fraction
from itertools import product

from hyperclass import numerics as N
from hyperclass.exactalg import GaussRational, MultiPoly
from hyperclass.families import catalog

ELEMENTS = [e for elems in N._W_D3.values() for e in elems]
# signed slots -> (slots, z(w), prefactor factors), as numerics derives them
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
# The symmetry rows generated from the table
# ---------------------------------------------------------------------------

SYMBOLS = (MultiPoly.const(1),) + tuple(
    MultiPoly.var(n) for n in ("alpha", "beta", "mu"))


def target(e) -> tuple:
    return tuple(SYMBOLS[abs(k)].scale(1 if k > 0 else -1) for k in e)


def prefactor_exponents(element) -> tuple:
    """The exponents at w = 0, 1 and infinity of the prefactor
    (+-w)^x (1-w)^y of a _KUMMER element: x, y and -(x + y), as MultiPoly,
    read exactly from the table's doubled form (d_0, signed slots) at the
    point, 0 or 1, that the table records for each factor."""
    at = [MultiPoly(), MultiPoly()]
    for j, _, d0, ks in element[2]:
        at[j] = MultiPoly.const(Fraction(d0, 2))
        for k in ks:
            half = Fraction(1 if k > 0 else -1, 2)
            at[j] = at[j] + SYMBOLS[abs(k)].scale(half)
    return at[0], at[1], -(at[0] + at[1])


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


def test_symmetry_row_ids_run_over_substitutions_then_signs():
    rows = catalog("2f1").symmetries
    assert [row.location for row in rows[:4]] == [
        "w=v, (a,b,m)", "w=v, (-a,-b,m)", "w=v, (a,-b,-m)", "w=v, (-a,b,-m)"]
    assert [row.location for row in rows[::4]] == [
        "w=v, (a,b,m)", "w=1-v, (b,a,m)", "w=1/v, (m,b,a)",
        "w=(v-1)/v, (m,a,b)", "w=1/(1-v), (b,m,a)", "w=v/(v-1), (a,m,b)"]


# ---------------------------------------------------------------------------
# The roots
# ---------------------------------------------------------------------------

def roots() -> set:
    """The shifts target - p of the 2F1 transmutation rows."""
    p = SYMBOLS[1:]
    return {tuple((t - x).eval_numeric({}) for t, x in zip(row.target, p))
            for row in catalog("2f1").transmutations}


def test_transmutation_shifts_are_the_roots_of_d3():
    expected = set()
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for si, sj in product((1, -1), repeat=2):
            r = [0, 0, 0]
            r[i], r[j] = si, sj
            expected.add(tuple(r))
    assert roots() == expected


def test_symmetry_rows_map_the_roots_onto_themselves():
    # a row's target is its signed permutation of (alpha, beta, mu)
    shifts = roots()
    assert len(shifts) == 12
    for row in catalog("2f1").symmetries:
        image = {tuple(t.eval_numeric(dict(zip(("alpha", "beta", "mu"), r)))
                       for t in row.target) for r in shifts}
        assert image == shifts, row.id
