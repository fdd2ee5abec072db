"""The exact suites of `verify` (factorizations, quadratic) and the
symbolic checks that `verify_mixed` shares: operator identities in
`exactalg` with rational coefficients.  It loads no numeric code."""

from __future__ import annotations

from . import families as fam
from .exactalg import (DiffOperator, MultiPoly, RatFun, op_compose,
                       op_conjugate, op_substitute)
from .verify import _once, _symbolic


def transmutation_sides(family: str, row) -> tuple:
    """(A o weight*F_source, weight*F_target o A) of a transmutation row."""
    Fsym = fam.make_operator_expr(family, "w", fam.symbolic_params(family))
    Ftgt = fam.make_operator_expr(family, "w", row.target)
    weight = RatFun(row.weight)
    return (op_compose(row.A, Fsym.scale(weight)),
            op_compose(Ftgt.scale(weight), row.A))


def check_transmutation_symbolic(family: str, row) -> bool:
    lhs, rhs = transmutation_sides(family, row)
    return lhs == rhs


def check_factorization_symbolic(family: str, row) -> bool:
    Fsym = fam.make_operator_expr(family, "w", fam.symbolic_params(family))
    comp = op_compose(row.left, row.right) \
        + DiffOperator("w", [RatFun(row.constant)])
    return Fsym.scale(RatFun(row.weight)) == comp


def check_darboux_pair(family: str, row, partner) -> bool:
    """The partner's factors at shifted parameters swap into this row's."""
    pid, pexprs = row.pair
    pl = fam.subs_params(partner.left, family, pexprs)
    pr = fam.subs_params(partner.right, family, pexprs)
    return pl == row.right and pr == row.left


def check_symmetry_symbolic(family: str, row, shared=None) -> bool:
    """substitute(F) == sign*prefactor * m F_target m^{-1} for a symbolic
    symmetry row.  `shared` (see `_once`) holds F at symbolic parameters
    per family and its substitution per value of `row.sub` across rows."""
    Fsym = _once(shared, ("F", family), lambda: fam.make_operator_expr(
        family, "w", fam.symbolic_params(family)))
    lhs = _once(shared, ("F", family, row.sub),
                lambda: op_substitute(Fsym, row.sub))
    Ftgt = fam.make_operator_expr(family, "v", row.target)
    pref = row.prefactor * RatFun(MultiPoly.const(row.sign))
    rhs = op_conjugate(Ftgt, row.mult.inverse()).scale(pref)
    return lhs == rhs


def check_quadratic_link_symbolic(link) -> bool:
    Fsrc = fam.make_operator_expr(link.source_family, "w", link.source_params)
    lhs = op_substitute(
        Fsrc.scale(RatFun(MultiPoly.const(link.scale))), link.sub)
    Ftgt = fam.make_operator_expr(link.target_family, "v", link.target_params)
    rhs = op_conjugate(Ftgt, link.mult).scale(link.prefactor)
    return lhs == rhs


def _counts_check(family: str, section: str, actual: int):
    expected = fam.EXPECTED_COUNTS[family][section]
    miss = abs(actual - expected)
    return _symbolic(f"counts:{family}:{section}",
                     f"catalog has {expected} {section} rows",
                     not miss, float(miss) if miss else None)


def suite_factorizations(families, seed, tol, shared):
    for f in families:
        cat = fam.catalog(f)
        yield _counts_check(f, "factorizations", len(cat.factorizations))
        by_id = {r.id: r for r in cat.factorizations}
        for row in cat.factorizations:
            yield _symbolic(row.id, row.location,
                            check_factorization_symbolic(f, row))
            if row.pair is not None:
                yield _symbolic(row.id + ":darboux",
                                f"factor swap with {row.pair[0]}",
                                check_darboux_pair(f, row, by_id[row.pair[0]]))


def suite_quadratic(families, seed, tol, shared):
    for link in fam.quadratic_links():
        if link.source_family in families or link.target_family in families:
            yield _symbolic(link.id, link.location,
                            check_quadratic_link_symbolic(link))
