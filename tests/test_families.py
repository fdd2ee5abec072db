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
    _factorizations,
    catalog,
    make_operator_expr,
    quadratic_links,
    symbolic_params,
)
from hyperclass.jet import Jet
from hyperclass.tables import FAMILIES, PARAMS, classical_to_lie

CATALOG_FAMILIES = tuple(EXPECTED_COUNTS)


# ---------------------------------------------------------------------------
# Parameter maps
# ---------------------------------------------------------------------------

def lie_to_classical(family: str, lie: tuple) -> tuple:
    """The classical parameters of Lie parameters, in the order of
    ``PARAMS[family].classical``, written out independently of
    `classical_to_lie` so the round trip checks it."""
    if family == "2f1":
        al, be, mu = lie
        return (1 + al + be + mu) / 2, (1 + al + be - mu) / 2, 1 + al
    if family == "gegenbauer":
        al, la = lie
        return 0.5 + al - la, 0.5 + al + la
    if family == "1f1":
        th, al = lie
        return (1 + al + th) / 2, 1 + al
    if family == "hermite":
        return (lie[0] + 0.5,)
    return (lie[0] + 1,)


@pytest.mark.parametrize("family", FAMILIES)
def test_param_roundtrip(family):
    # dyadic parts, so every step is exact in floats
    lie = tuple(complex((k + 2) / 8, -k / 4)
                for k in range(len(PARAMS[family].lie)))
    classical = lie_to_classical(family, lie)
    assert len(classical) == len(PARAMS[family].classical)
    assert classical_to_lie(family, classical) == lie


def test_classical_values_2f1():
    al, be, mu = Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)
    a, b, c = lie_to_classical("2f1", (al, be, mu))
    assert c == 1 + Fraction(1, 3)
    assert a + b == 1 + Fraction(1, 3) + Fraction(1, 5)
    assert a - b == Fraction(1, 7)


def test_classical_values_1f1():
    a, c = lie_to_classical("1f1", (Fraction(1, 7), Fraction(2, 11)))
    assert 2 * a - c == Fraction(1, 7)
    assert c == 1 + Fraction(2, 11)


def test_family_params_validation():
    # an unknown family, or a missing or extra classical parameter, raises
    with pytest.raises(KeyError):
        classical_to_lie("nope", (1,))
    with pytest.raises(ValueError):
        classical_to_lie("2f1", (1, 2))
    with pytest.raises(ValueError):
        classical_to_lie("hermite", (1, 2))


# ---------------------------------------------------------------------------
# Operators annihilate their series solutions
# ---------------------------------------------------------------------------

def _annihilation_residual(family, lie, w0, fn):
    op = make_operator_expr(family, "w", symbolic_params(family))
    assign = dict(zip(PARAMS[family].lie, lie))
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
