"""Family operators and the identity catalog: counts, parameter maps,
operator/series consistency."""

from fractions import Fraction

import pytest

from hyperclass import numerics as N
from hyperclass.exactalg import jet_apply
from hyperclass.families import (
    EXPECTED_COUNTS,
    FAMILIES,
    PARAM_NAMES,
    ClassicalParams,
    FamilyParams,
    catalog,
    classical_to_lie,
    lie_to_classical,
    make_operator_expr,
    quadratic_links,
    symbolic_params,
)
from hyperclass.jet import Jet

CATALOG_FAMILIES = tuple(EXPECTED_COUNTS)


# ---------------------------------------------------------------------------
# Parameter maps
# ---------------------------------------------------------------------------

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
    a, b, c = (1 + al + be + mu) / 2, (1 + al + be - mu) / 2, 1 + al
    r = _annihilation_residual(
        "2f1", (al, be, mu), 0.2 + 0.1j,
        lambda j: N.hyp2f1_series(a, b, c, j))
    assert r < 1e-12


def test_operator_annihilates_1f1():
    th, al = 0.4, -0.22
    a, c = (1 + al + th) / 2, 1 + al
    r = _annihilation_residual(
        "1f1", (th, al), 0.7 - 0.3j,
        lambda j: N.hyp1f1_series(a, c, j))
    assert r < 1e-12


def test_operator_annihilates_0f1():
    al = 0.37
    r = _annihilation_residual(
        "0f1", (al,), 1.1 + 0.4j,
        lambda j: N.hyp0f1_series(al + 1, j))
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
    rows = catalog(family).integral_reps
    assert len(rows) >= 2
    for r in rows:
        assert r.family == family
        assert len(r.samples) >= 3
