"""scripts/bench_routes.py: two revisions in one process, per route."""

import importlib.util
import math
import subprocess
import sys
import types
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SCRIPT = _ROOT / "scripts" / "bench_routes.py"


@pytest.fixture
def bench_routes():
    spec = importlib.util.spec_from_file_location("bench_routes", _SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _package(root: Path, value: str) -> str:
    """A src/ tree whose hyperclass.numerics imports a sibling module."""
    pkg = root / "src" / "hyperclass"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "jet.py").write_text(f"VALUE = {value!r}\n")
    (pkg / "numerics.py").write_text("from .jet import VALUE\n")
    return str(root / "src")


def test_two_copies_load_under_two_names(bench_routes, tmp_path):
    a = bench_routes.load_package("bench_a", _package(tmp_path / "a", "a"))
    b = bench_routes.load_package("bench_b", _package(tmp_path / "b", "b"))
    try:
        assert (a.__name__, a.VALUE) == ("bench_a.numerics", "a")
        assert (b.__name__, b.VALUE) == ("bench_b.numerics", "b")
        assert sys.modules["bench_a.jet"].__file__.startswith(
            str(tmp_path / "a"))
    finally:
        for name in ("bench_a", "bench_a.jet", "bench_a.numerics",
                     "bench_b", "bench_b.jet", "bench_b.numerics"):
            sys.modules.pop(name, None)


def test_unpack_src_takes_a_revision(bench_routes, tmp_path):
    if subprocess.run(["git", "-C", str(_ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode:
        pytest.skip("not a git checkout")
    src = bench_routes.unpack_src("HEAD", str(tmp_path))
    assert (Path(src) / "hyperclass" / "numerics.py").is_file()
    assert not (tmp_path / "tests").exists()


def test_points_are_the_routed_eval_points(bench_routes):
    inputs = bench_routes.load_inputs()
    fns = {fn for _, fn in inputs.SERIES_REGIONS + inputs.QUADRATURE_REGIONS}
    assert set(bench_routes.ROUTED) <= fns
    pts = bench_routes.points(inputs, [1])
    want = [p for p in inputs.eval_points(1) if p["fn"] in bench_routes.ROUTED]
    assert len(pts) == len(want) > 0
    assert {name for name, *_ in pts} \
        == {name for name, _ in bench_routes.ROUTED.values()}


class _Error(Exception):
    pass


def _numerics(route_of):
    """A stand-in numerics module whose `_tricomi` returns (w, route,
    estimate), raises at w = 0, and whose 2F1 gives the parent's pair."""
    def tricomi(th, al, w, tol):
        if w == 0:
            raise _Error("on the cut")
        return w, route_of(w), 1e-12
    return types.SimpleNamespace(
        NumericsError=_Error, _tricomi=tricomi,
        _eval_2F1_routed=lambda al, be, mu, w: (w, "series"))


def test_report_counts_outcomes_that_are_not_bitwise_equal(bench_routes):
    tricomi = bench_routes.ROUTED["eval_tricomi"][1]
    pts = [("tricomi", tricomi, [0.1, 0.2], w)
           for w in (1 + 1j, 2 + 0j, complex(-0.0, 1.0), 0j)] \
        + [("2f1", bench_routes.ROUTED["eval_2F1"][1], [0.1, 0.2, 0.3],
            0.3 + 0j)]
    parent = _numerics(lambda w: "series")
    change = _numerics(lambda w: "cf" if w == 2 else "series")
    # -0.0 against 0.0 in the real part is not bitwise equal
    change_tricomi = change._tricomi
    change._tricomi = lambda th, al, w, tol: (
        (complex(abs(w.real), w.imag), *change_tricomi(th, al, w, tol)[1:])
        if w else change_tricomi(th, al, w, tol))
    report = bench_routes.compare([parent, parent], [change, change], pts)
    assert list(report) == ["2f1/series", "tricomi/cf", "tricomi/error",
                            "tricomi/series"]
    counts = {k: (r["points"], r["not_bitwise_equal"])
              for k, r in report.items()}
    assert counts == {"2f1/series": (1, 0), "tricomi/cf": (1, 1),
                      "tricomi/error": (1, 0), "tricomi/series": (2, 1)}
    # the parent took series at the point where the change took cf; the
    # values differ only in the route (0) or the sign of a zero (0 too)
    assert {k: (r["parent_routes"], r["max_rel_diff"])
            for k, r in report.items()} \
        == {"2f1/series": ({}, None), "tricomi/cf": ({"series": 1}, 0.0),
            "tricomi/error": ({}, None), "tricomi/series": ({}, 0.0)}
    for r in report.values():
        lo, hi = r["interval"]
        assert 0 < lo <= hi < math.inf
        assert r["parent_us"] > 0 and r["change_us"] > 0
        assert 0 < r["median_ratio"] < math.inf
    table = bench_routes.table(report).splitlines()
    assert len(table) == 1 + len(report)
    assert table[2].split()[:4] == ["tricomi/cf", "1", "1", "0.0e+00"]
    assert table[2].split()[-1] == "series:1"
    assert table[1].split()[3] == "-"


def test_report_names_moved_routes_and_their_largest_difference(
        bench_routes):
    # a change that moves two of three points to a new route, off by 1e-13
    # and 3e-13 relative, and makes the third raise
    tricomi = bench_routes.ROUTED["eval_tricomi"][1]
    pts = [("tricomi", tricomi, [0.1, 0.2], w) for w in (1.0, 2.0, 3.0)]
    parent = _numerics(lambda w: "series")
    change = _numerics(lambda w: "new")
    change._tricomi = lambda th, al, w, tol: (
        (w * (1 + 1e-13 * w * w), "new", None) if w < 3
        else parent._tricomi(th, al, 0.0, tol))
    report = bench_routes.compare([parent], [change], pts)
    assert list(report) == ["tricomi/error", "tricomi/new"]
    new = report["tricomi/new"]
    assert (new["points"], new["not_bitwise_equal"], new["parent_routes"]) \
        == (2, 2, {"series": 2})
    assert new["max_rel_diff"] == pytest.approx(4e-13, rel=1e-3)
    error = report["tricomi/error"]
    assert (error["parent_routes"], error["max_rel_diff"]) \
        == ({"series": 1}, math.inf)
    line = bench_routes.table(report).splitlines()[2].split()
    assert line[3] == "4.0e-13" and line[-1] == "series:2"


def test_relative_difference(bench_routes):
    rel = bench_routes.relative_difference
    assert rel(2.0, 2.0) == 0.0 == rel(0j, 0j)
    assert rel(2.0, 2.5) == 0.25
    assert rel(None, 1.0) == rel(1.0, None) == rel(0j, 1e-300) == math.inf


def test_bits_tell_signed_zeros_and_nans_apart(bench_routes):
    bits = bench_routes._bits
    assert bits(0.0) != bits(-0.0)
    assert bits(complex(0.0, 1.0)) != bits(complex(-0.0, 1.0))
    assert bits(math.nan) == bits(math.nan)
    assert bits(None) is None and bits("series") == "series"


def test_normalized_names_are_the_table_of_numerics(bench_routes):
    # one named function per (family, norm) key of numerics.NORMALIZED, at
    # the points of that family's evaluator
    from hyperclass import numerics as N
    inputs = bench_routes.load_inputs()
    fns = {fn for _, fn in inputs.SERIES_REGIONS + inputs.QUADRATURE_REGIONS}
    assert set(bench_routes.NORMALIZED) <= fns
    names = [n for ns in bench_routes.NORMALIZED.values() for n in ns]
    assert len(set(names)) == len(names) == len(N.NORMALIZED)
    assert all(callable(getattr(N, n)) for n in names)
    pts = bench_routes.normalized_points(inputs, [1])
    want = [p for p in inputs.eval_points(1)
            if p["fn"] in ("eval_1F1", "eval_0F1")]
    assert len(want) > 0
    assert sum(name in ("bold_F_1f1", "bold_F_0f1") for name, *_ in pts) \
        == len(want)


def test_normalized_report_counts_values_and_exceptions(bench_routes):
    def numerics(shift):
        def bold(th, al, w):
            if w == 0:
                raise _Error(f"at {shift}")
            return w + shift if w == 2 else w
        return types.SimpleNamespace(NumericsError=_Error, bold_F_1f1=bold,
                                     bold_F_0f1=lambda al, w: -w)
    pts = [("bold_F_1f1", [0.1, 0.2], w) for w in (1 + 1j, 2 + 0j, 0j)] \
        + [("bold_F_0f1", [0.1], w) for w in (0j, 1 + 0j)]
    same = bench_routes.compare_normalized(numerics(0), numerics(0), pts)
    assert same == {"bold_F_0f1": {"points": 2, "not_bitwise_equal": 0,
                                   "max_rel_diff": None},
                    "bold_F_1f1": {"points": 3, "not_bitwise_equal": 0,
                                   "max_rel_diff": None}}
    # the value at 2 differs, by 1/2 relative, and so does the message at
    # 0, where no value is compared; -0.0 is not 0.0
    report = bench_routes.compare_normalized(numerics(0), numerics(1), pts)
    assert report["bold_F_1f1"] == {"points": 3, "not_bitwise_equal": 2,
                                    "max_rel_diff": math.inf}
    assert report["bold_F_0f1"] == {"points": 2, "not_bitwise_equal": 0,
                                    "max_rel_diff": None}
    moved = bench_routes.compare_normalized(numerics(0), numerics(1),
                                            pts[1:2])
    assert moved["bold_F_1f1"]["max_rel_diff"] == 0.5
    signed = bench_routes.compare_normalized(
        numerics(0), types.SimpleNamespace(
            NumericsError=_Error, bold_F_0f1=lambda al, w: w), pts[3:])
    assert signed["bold_F_0f1"]["not_bitwise_equal"] == 2


def test_report_names_each_side_by_its_commit(bench_routes):
    head = subprocess.run(["git", "-C", str(_ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode:
        pytest.skip("not a git checkout")
    head = head.stdout.strip()
    assert len(head) == 40
    assert bench_routes.revisions("HEAD", None) \
        == {"parent": head, "change": f"working tree on {head}"}
    assert bench_routes.revisions(head[:12], "HEAD") \
        == {"parent": head, "change": head}
    with pytest.raises(subprocess.CalledProcessError):
        bench_routes.revisions("no-such-revision", None)


def _verify(errors):
    """A stand-in verify module: run_suite(suite, family, seed) gives one
    check per entry of errors[family], (id, status, error), and none for a
    family it does not name."""
    def run_suite(suite, family, seed=0):
        return types.SimpleNamespace(checks=[
            types.SimpleNamespace(id=f"{suite}:{family}:{cid}",
                                  status=status, error=error)
            for cid, status, error in errors.get(family, ())])
    return types.SimpleNamespace(ALL_FAMILIES=("a", "b", "c"),
                                 run_suite=run_suite)


def test_suite_report_compares_ids_statuses_and_error_moves(bench_routes):
    parent = _verify({"a": [(1, "pass", 1e-12), (2, "pass", None)],
                      "b": [(1, "pass", 3e-11)]})
    change = _verify({"a": [(1, "pass", 4e-12), (2, "pass", None)],
                      "b": [(1, "fail", 3e-6)]})
    # a family without checks (c) is no point; one point per seed
    pts = bench_routes.suite_points(parent, "integrals", [1, 3])
    assert pts == [("integrals/a", "integrals", "a", 1),
                   ("integrals/a", "integrals", "a", 3),
                   ("integrals/b", "integrals", "b", 1),
                   ("integrals/b", "integrals", "b", 3)]
    report = bench_routes.compare_suites([parent, parent], [change, change],
                                         pts)
    assert list(report) == ["integrals/a", "integrals/b"]
    a, b = report["integrals/a"], report["integrals/b"]
    assert (a["points"], a["unequal"]) == (2, 0)
    assert a["max_error_move"] == pytest.approx(3e-12)
    # a status that differs is an unequal outcome, and no error move
    assert (b["points"], b["unequal"], b["max_error_move"]) == (2, 2, 0.0)
    for r in report.values():
        lo, hi = r["interval"]
        assert 0 < lo <= hi < math.inf
        assert r["parent_us"] > 0 and r["change_us"] > 0
    lines = bench_routes.suite_table(report).splitlines()
    assert len(lines) == 3
    assert lines[1].split()[:4] == ["integrals/a", "2", "0", "3.0e-12"]
    assert lines[2].split()[:3] == ["integrals/b", "2", "2"]


def test_error_move(bench_routes):
    move = bench_routes.error_move
    assert move(None, None) == 0.0 and move(1e-12, 1e-12) == 0.0
    assert move(1e-12, 3e-12) == pytest.approx(2e-12)
    assert move(None, 1e-12) == move(1e-12, None) == math.inf
