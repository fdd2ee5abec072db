"""Family operators and the identity catalog: counts, parameter maps,
operator/series consistency."""

import re
from fractions import Fraction

import pytest

from hyperclass import numerics as N
from hyperclass import quadrature
from hyperclass.exactalg import jet_apply
from hyperclass.families import (
    EXPECTED_COUNTS,
    FAMILIES,
    PARAM_NAMES,
    ClassicalParams,
    FamilyParams,
    _factorizations,
    catalog,
    classical_to_lie,
    make_operator_expr,
    quadratic_links,
    symbolic_params,
)
from hyperclass.jet import Jet

CATALOG_FAMILIES = tuple(EXPECTED_COUNTS)


# ---------------------------------------------------------------------------
# Parameter maps
# ---------------------------------------------------------------------------

def lie_to_classical(p: FamilyParams) -> ClassicalParams:
    """The classical parameters of exact Lie parameters p, written out
    independently of `classical_to_lie` so the round trip checks it."""
    f, v, half = p.family, p.values, Fraction(1, 2)
    if f == "2f1":
        al, be, mu = v
        vals = {"a": (1 + al + be + mu) / 2, "b": (1 + al + be - mu) / 2,
                "c": 1 + al}
    elif f == "gegenbauer":
        al, la = v
        vals = {"a": half + al - la, "b": half + al + la}
    elif f in ("1f1", "2f0"):
        th, al = v
        vals = {"a": (1 + al + th) / 2, "b": (1 - al + th) / 2, "c": 1 + al}
    elif f == "hermite":
        vals = {"a": v[0] + half}
    else:
        vals = {"c": v[0] + 1}
    return ClassicalParams(f, vals)


@pytest.mark.parametrize("family", FAMILIES)
def test_param_roundtrip(family):
    n = len(PARAM_NAMES[family])
    vals = tuple(Fraction(k + 2, 7) for k in range(n))
    p = FamilyParams(family, vals)
    back = classical_to_lie(lie_to_classical(p))
    assert back.family == family
    assert tuple(back.values) == vals


def test_classical_values_2f1():
    p = FamilyParams("2f1", (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)))
    c = lie_to_classical(p).values
    assert c["c"] == 1 + Fraction(1, 3)
    assert c["a"] + c["b"] == 1 + Fraction(1, 3) + Fraction(1, 5)
    assert c["a"] - c["b"] == Fraction(1, 7)


def test_classical_values_1f1():
    p = FamilyParams("1f1", (Fraction(1, 7), Fraction(2, 11)))
    c = lie_to_classical(p).values
    assert 2 * c["a"] - c["c"] == Fraction(1, 7)
    assert c["c"] == 1 + Fraction(2, 11)


def test_family_params_validation():
    with pytest.raises(ValueError):
        FamilyParams("nope", (1,))
    with pytest.raises(ValueError):
        FamilyParams("2f1", (1, 2))


# ---------------------------------------------------------------------------
# Operators annihilate their series solutions
# ---------------------------------------------------------------------------

def _annihilation_residual(family, lie, w0, fn):
    op = make_operator_expr(family, "w", symbolic_params(family))
    assign = dict(zip(PARAM_NAMES[family], lie))
    assign["w"] = w0
    j = Jet.variable(w0, 2)
    f = fn(j)
    val = jet_apply(op, f, assign)[0]
    scale = max(abs(c.eval_numeric(assign)) for c in op.coeffs) * abs(f.value())
    return abs(val) / max(scale, 1e-300)


def test_operator_annihilates_2f1():
    al, be, mu = 0.31, -0.17, 0.23
    r = _annihilation_residual(
        "2f1", (al, be, mu), 0.2 + 0.1j,
        lambda j: N.eval_2F1(al, be, mu, j))
    assert r < 1e-12


def test_operator_annihilates_1f1():
    th, al = 0.4, -0.22
    r = _annihilation_residual(
        "1f1", (th, al), 0.7 - 0.3j,
        lambda j: N.eval_1F1(th, al, j))
    assert r < 1e-12


def test_operator_annihilates_0f1():
    al = 0.37
    r = _annihilation_residual(
        "0f1", (al,), 1.1 + 0.4j,
        lambda j: N.eval_0F1(al, j))
    assert r < 1e-12


def test_operator_annihilates_gegenbauer():
    al, la = 0.29, 0.18
    r = _annihilation_residual(
        "gegenbauer", (al, la), 0.3 + 0.2j,
        lambda j: N.eval_geg_S(al, la, j))
    assert r < 1e-12


def test_operator_annihilates_hermite():
    la = 0.41
    r = _annihilation_residual(
        "hermite", (la,), 0.9 + 0.1j,
        lambda j: N.eval_hermite_S(la, j))
    assert r < 1e-9


# ---------------------------------------------------------------------------
# Catalog shape
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", CATALOG_FAMILIES)
def test_catalog_counts(family):
    cat = catalog(family)
    assert len(cat.transmutations) == EXPECTED_COUNTS[family]["transmutations"]
    assert len(cat.factorizations) == EXPECTED_COUNTS[family]["factorizations"]
    assert len(cat.symmetries) == EXPECTED_COUNTS[family]["symmetries"]
    assert len(cat.recurrences) == EXPECTED_COUNTS[family]["recurrences"]


@pytest.mark.parametrize("family", CATALOG_FAMILIES)
def test_catalog_ids_unique_and_described(family):
    cat = catalog(family)
    rows = (cat.transmutations + cat.factorizations + cat.symmetries
            + cat.recurrences)
    ids = [r.id for r in rows]
    assert len(ids) == len(set(ids))
    for r in rows:
        assert r.location  # every row carries a descriptor string


def test_catalog_cached():
    assert catalog("2f1") is catalog("2f1")


def test_catalog_unknown_family():
    with pytest.raises(KeyError):
        catalog("legendre")


def test_quadratic_links_count():
    links = quadratic_links()
    assert len(links) == 6
    assert len({l.id for l in links}) == 6


@pytest.mark.parametrize("family", CATALOG_FAMILIES)
def test_integral_rep_rows_nonempty(family):
    # the catalog lists the rows that quadrature evaluates, from one table:
    # the same (id, location) pairs in the same order
    rows = catalog(family).integral_reps
    assert len(rows) >= 2
    assert rows == tuple((r.id, r.location)
                         for r in quadrature.integral_rep_rows(family))


@pytest.mark.parametrize("family", CATALOG_FAMILIES)
def test_darboux_partner_sits_at_the_right_factors_target(family):
    cat = catalog(family)
    for row in cat.factorizations:
        if row.pair is None:
            continue
        (t,) = [t for t in cat.transmutations if t.A == row.right]
        assert row.pair[1] == t.target, row.id


def test_recurrence_rows_take_the_transmutation_rows_operators():
    for family in CATALOG_FAMILIES:
        cat = catalog(family)
        for t, r in zip(cat.transmutations, cat.recurrences, strict=True):
            assert r.A is t.A and r.target is t.target


def test_a_root_without_its_negative_fails_the_build():
    # 2F1 row 04 (root (-1, 1, 0)) overwritten by a copy of row 03 (root
    # (1, -1, 0)): the factorization of row 03 has no left factor
    cat = catalog("2f1")
    trans = cat.transmutations
    bad = trans[:3] + (trans[2],) + trans[4:]
    rows = [([j for j, t in enumerate(trans, 1) if t.A == r.right][0],
             r.constant, r.pair and int(r.pair[0][-2:]), r.location)
            for r in cat.factorizations]
    assert _factorizations("2f1", trans, rows) == cat.factorizations
    with pytest.raises(ValueError, match=re.escape("root (-1, 1, 0)")):
        _factorizations("2f1", bad, rows)
