"""Verification suites: green on the shipped catalog, red under corruption."""

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
