"""Verification suites: green on the shipped catalog, red under corruption."""

import dataclasses
import json

import pytest

from hyperclass import families as fam
from hyperclass import verify as V
from hyperclass.families import EXPECTED_COUNTS


def _assert_clean(report):
    bad = [c for c in report.checks if c.status == "fail"]
    assert not bad, "failing checks: " + ", ".join(
        f"{c.id}({c.error})" for c in bad)


# ---------------------------------------------------------------------------
# Individual suites
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 3])
def test_integral_rows_keep_their_digits(seed):
    # the suite passes a row to 1e-7, but every row meets 1e-10 (the worst
    # is geg:int:08 at about 3.8e-11): a quadrature change that loses
    # digits fails here before it fails the suite
    rows = [c for c in V.run_suite("integrals", seed=seed).checks
            if ":int:" in c.id]
    assert len(rows) == 10 + 8 + 9 + 4 + 7
    worst = max(rows, key=lambda c: c.error)
    assert worst.error <= 1e-10, (worst.id, worst.error)


@pytest.mark.parametrize("suite", V.SUITES)
def test_suite_green(suite):
    report = V.run_suite(suite)
    _assert_clean(report)
    assert report.passed > 0
    assert report.suite == suite


@pytest.mark.parametrize("family", V.ALL_FAMILIES)
def test_single_family_filter(family):
    report = V.run_suite("transmutations", family=family)
    _assert_clean(report)
    # counts check + one symbolic and one numeric check per row
    n = EXPECTED_COUNTS[family]["transmutations"]
    assert report.passed + report.skipped == 2 * n + 1


@pytest.mark.parametrize("family", V.ALL_FAMILIES)
def test_transmutation_suite_composes_twice_per_row(family, monkeypatch):
    # the symbolic check and the kernel residual share (weight*F_tgt) o A
    calls = []
    compose = V.op_compose

    def counting(A, B):
        calls.append((A, B))
        return compose(A, B)

    monkeypatch.setattr(V, "op_compose", counting)
    report = V.suite_transmutations(family=family)
    _assert_clean(report)
    assert len(calls) == 2 * len(fam.catalog(family).transmutations)


def _count_shared_traffic(monkeypatch):
    """Patch the four shared computations of the suites to log their
    arguments; returns the log of (kind, key)."""
    from hyperclass import numerics as N
    from hyperclass.jet import Jet
    log = []
    kummer, evaluate, substitute = (N.eval_kummer_expression, N.evaluate,
                                    V.op_substitute)

    def counting_kummer(*args):
        log.append(("kummer", args))
        return kummer(*args)

    def counting_evaluate(family, params, w, *args, **kwargs):
        if isinstance(w, Jet):
            log.append(("jet", (family, params, w.center, w.order) + args))
        return evaluate(family, params, w, *args, **kwargs)

    def counting_substitute(F, sub):
        log.append(("substitute", (repr(F), sub)))
        return substitute(F, sub)

    monkeypatch.setattr(N, "eval_kummer_expression", counting_kummer)
    monkeypatch.setattr(N, "evaluate", counting_evaluate)
    monkeypatch.setattr(V, "op_substitute", counting_substitute)
    return log


# distinct shared values of one run of each suite over its families: the
# 24 Kummer expressions at the 5 points, the solution jets of the
# recurrence rows and of the transmutation kernels, and the substitutions
# of F by the symbolic symmetry rows
_SHARED_TRAFFIC = (("kummer", "2f1", "kummer", 120),
                   ("recurrences", None, "jet", 25),
                   ("transmutations", None, "jet", 5),
                   ("symmetries", None, "substitute", 15))


@pytest.mark.parametrize("suite, family, kind, distinct", _SHARED_TRAFFIC)
def test_a_suite_run_computes_each_shared_value_once(suite, family, kind,
                                                     distinct, monkeypatch):
    log = _count_shared_traffic(monkeypatch)
    for _ in range(2):
        # nothing outlives a call: the second makes the same calls again
        log.clear()
        _assert_clean(V.run_suite(suite, family=family, seed=1))
        keys = [key for k, key in log if k == kind]
        assert len(keys) == len(set(keys)) == distinct


def test_a_failing_shared_value_is_computed_again(monkeypatch):
    from hyperclass import numerics as N
    kummer = N.eval_kummer_expression
    bad = next(iter(N._W_D3))
    calls = []

    def failing(sol_key, row, *args):
        if (sol_key, row) == (bad, 0):
            calls.append(args)
            raise N.DegeneracyError("no value")
        return kummer(sol_key, row, *args)

    monkeypatch.setattr(N, "eval_kummer_expression", failing)
    checks = V.run_suite("kummer", family="2f1").checks
    skipped = [c for c in checks if c.status == "skipped"]
    # each pair (0, r2) raises at its first point, the same error
    assert [c.id for c in skipped] == [f"kummer:{bad}:0{r}"
                                       for r in (1, 2, 3)]
    assert {c.reason for c in skipped} == {"DegeneracyError: no value"}
    assert calls == [(*V.NUMERIC_PARAMS["2f1"], V.KUMMER_POINTS[0])] * 3


def test_helpers_agree_with_and_without_shared_values():
    al, be, mu = V.NUMERIC_PARAMS["2f1"]
    shared = {}
    for key in V.N._W_D3:
        for r1 in range(4):
            for r2 in range(r1 + 1, 4):
                args = (al, be, mu, key, r1, r2)
                assert V.kummer_pair_residual(*args) \
                    == V.kummer_pair_residual(*args, shared=shared)
    for f in V.ALL_FAMILIES:
        cat = fam.catalog(f)
        shared = {}
        for row in cat.recurrences:
            assert V.recurrence_residual(f, row) \
                == V.recurrence_residual(f, row, shared)
        shared = {}
        for row in cat.transmutations:
            C = V.transmutation_sides(f, row)[1]
            assert V.transmutation_kernel_residual(f, C) \
                == V.transmutation_kernel_residual(f, C, shared)
        shared = {}
        for row in cat.symmetries:
            if row.mode == "symbolic":
                assert V.check_symmetry_symbolic(f, row) \
                    is V.check_symmetry_symbolic(f, row, shared) is True


def test_unknown_suite_and_family():
    with pytest.raises(ValueError):
        V.run_suite("nope")
    with pytest.raises(ValueError):
        V.run_suite("transmutations", family="legendre")


def test_symbolic_checks_exact():
    # symbolic checks carry no numeric residual (exact pass/fail)
    report = V.run_suite("factorizations", family="2f1")
    sym = [c for c in report.checks if c.kind == "symbolic"]
    assert sym and all(c.error in (None, 0.0) for c in sym)
    assert all(c.status == "pass" for c in sym)


def test_kummer_pairwise_count():
    report = V.run_suite("kummer")
    assert len(report.checks) == 36
    _assert_clean(report)


def test_residuals_counts():
    report = V.run_suite("residuals")
    assert len(report.checks) == 6 + 4 + 4 + 2 + 3
    _assert_clean(report)


def test_connection_check_ids():
    report = V.run_suite("connection")
    ids = {c.id for c in report.checks}
    assert "conn:2f1:det" in ids or any("det" in i for i in ids)
    assert sum(1 for i in ids if i.startswith("conn:2f1:id:")) == 10


def test_connection_suite_is_independent_of_the_series_route(monkeypatch):
    # the evaluators' series route is the connection formula itself; the
    # suite's left sides come from the Laplace integrals, so corrupted
    # connection data cannot cancel out of a residual
    from hyperclass import numerics as N
    coeffs, matrix = N.connection_coeffs_0f1, N.connection_matrix_1f1

    def bad_coeffs(al):
        cp, cm = coeffs(al)
        return 2 * cp, cm

    def bad_matrix(th, al):
        A = matrix(th, al)
        A[0][0] *= 2
        return A

    monkeypatch.setattr(N, "connection_coeffs_0f1", bad_coeffs)
    monkeypatch.setattr(N, "connection_matrix_1f1", bad_matrix)
    checks = V.suite_connection().checks
    for prefix, count in (("conn:0f1:id:", len(V.CONNECTION_POINTS_0F1)),
                          ("conn:1f1:id:", len(V.CONNECTION_POINTS_1F1))):
        got = [c for c in checks if c.id.startswith(prefix)]
        assert len(got) == count
        assert all(c.status == "fail" for c in got), prefix


# ---------------------------------------------------------------------------
# Determinism and serialization
# ---------------------------------------------------------------------------

def test_report_deterministic():
    r1 = V.run_suite("recurrences", seed=3)
    r2 = V.run_suite("recurrences", seed=3)
    assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())


def test_report_schema():
    d = V.run_suite("quadratic").to_dict()
    assert list(d) == ["suite", "family", "seed", "checks",
                       "passed", "failed", "skipped"]
    for c in d["checks"]:
        assert list(c) == ["id", "paper_ref", "kind", "status", "error"]
    assert d["passed"] + d["failed"] + d["skipped"] == len(d["checks"])


def test_all_suite_concatenates():
    full = V.run_suite("all", family="0f1")
    assert full.suite == "all"
    per = sum(len(V.run_suite(s, family="0f1").checks) for s in V.SUITES)
    assert len(full.checks) == per


# ---------------------------------------------------------------------------
# Tolerance handling
# ---------------------------------------------------------------------------

def test_tol_override_fails_suite():
    report = V.run_suite("recurrences", family="2f1", tol=1e-18)
    assert report.failed > 0


def test_tol_scale_loosens():
    strict = V.run_suite("recurrences", family="2f1", tol=1e-18)
    loose = V.run_suite("recurrences", family="2f1", tol=1e-18,
                        tol_scale=1e12)
    # explicit tol wins over scaling; scaling applies to defaults only
    assert strict.failed == loose.failed
    scaled = V.run_suite("recurrences", family="2f1", tol_scale=1e-9)
    assert scaled.failed > 0


# ---------------------------------------------------------------------------
# Mutation sensitivity
# ---------------------------------------------------------------------------

def test_mutation_candidates_cover_catalog():
    cands = V._mutation_candidates()
    assert len(cands) >= 40


@pytest.mark.parametrize("seed", [0, 7])
def test_mutations_detected(seed):
    report = V.run_mutation_checks(seed=seed, n=20)
    assert len(report.checks) == 20
    assert report.failed == 0
    assert report.passed == 20


def test_darboux_check_catches_a_wrong_partner_id():
    # the factors are built from the transmutation rows, so what the
    # Darboux check still tests is the transcribed partner id
    f = "2f1"
    by_id = {r.id: r for r in fam.catalog(f).factorizations}
    row = by_id["2f1:fact:02"]
    assert V.check_darboux_pair(f, row, by_id[row.pair[0]])
    bad = dataclasses.replace(row, pair=("2f1:fact:03", row.pair[1]))
    assert not V.check_darboux_pair(f, bad, by_id["2f1:fact:03"])
