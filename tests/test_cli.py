"""CLI contract: parsing, output format, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from hyperclass import cli
from hyperclass import numerics as N
from hyperclass import quadrature as Q
from hyperclass import tables


def run(capsys, *argv, env=None, monkeypatch=None):
    if env and monkeypatch:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Number round-tripping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("z", [0.5, -3.25, 1 + 2j, -0.125 - 7.5j,
                               1e-12 + 1e-12j, 12345.678 - 0.001j])
def test_fmt_parse_roundtrip(z):
    z = complex(z)
    assert cli.parse_complex(cli.fmt_complex(z)) == pytest.approx(z, rel=1e-14)


_INF, _NAN = math.inf, math.nan


@pytest.mark.parametrize("z, printed", [
    (complex(0.5, -3.25), "0.5-3.25i"),
    (complex(-0.0, 2.0), "-0+2i"),
    (complex(-0.0, 0.0), "-0"),
    (complex(0.0, -0.0), "0"),        # a zero imaginary part is not printed
    (complex(2.5, -1.0), "2.5-1i"),
    (complex(1.0, _INF), "1+infi"),
    (complex(1.0, -_INF), "1-infi"),
    (complex(-_INF, 0.0), "-inf"),
    (complex(_NAN, _NAN), "nan+nani"),
    (complex(_NAN, -_NAN), "nan-nani"),
    (complex(0.25, _NAN), "0.25+nani"),
])
def test_fmt_parse_roundtrip_signed_zero_and_non_finite(z, printed):
    assert cli.fmt_complex(z) == printed
    back = cli.parse_complex(printed)
    for got, want in ((back.real, z.real), (back.imag, z.imag)):
        assert got == want or (math.isnan(got) and math.isnan(want))
    assert math.copysign(1.0, back.real) == math.copysign(1.0, z.real)


def test_parse_forms():
    assert cli.parse_complex("1.5") == 1.5
    assert cli.parse_complex("1.5,-2") == 1.5 - 2j
    assert cli.parse_complex("2i") == 2j
    assert cli.parse_complex("-i") == -1j
    # a signed exponent in a pure imaginary is not a real part's sign
    assert cli.parse_complex("1e-3i") == 1e-3j
    assert cli.parse_complex("-1e-3i") == -1e-3j
    assert cli.parse_complex("-2.5e+2i") == -250j
    assert cli.parse_complex("1e-3-1e-3i") == 1e-3 - 1e-3j
    # a unit imaginary part with a real part
    assert cli.parse_complex("1+i") == 1 + 1j
    assert cli.parse_complex("1-i") == 1 - 1j
    assert cli.parse_complex("2.5-i") == 2.5 - 1j
    assert cli.parse_complex("-2e-3+i") == -2e-3 + 1j
    with pytest.raises(cli.UsageError):
        cli.parse_complex("one")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_log_anchor(capsys):
    code, out, _ = run(capsys, "eval", "2f1",
                       "--a", "1", "--b", "1", "--c", "2", "--w", "0.5")
    assert code == 0
    lines = out.splitlines()
    assert abs(cli.parse_complex(lines[0]) - 2 * math.log(2)) < 1e-12
    assert lines[1].startswith("method: ")
    assert lines[2].startswith("error: ")


def test_eval_lie_equals_classical(capsys):
    _, out1, _ = run(capsys, "eval", "2f1",
                     "--a", "0.7", "--b", "0.4", "--c", "1.2", "--w", "0.3")
    _, out2, _ = run(capsys, "eval", "2f1", "--alpha", "0.2", "--beta",
                     "-0.1", "--mu", "0.3", "--w", "0.3")
    v1 = cli.parse_complex(out1.splitlines()[0])
    v2 = cli.parse_complex(out2.splitlines()[0])
    assert abs(v1 - v2) < 1e-12 * abs(v1)


def test_eval_complex_argument(capsys):
    # 0F1(;3/2;-z^2/4) = sin(z)/z; w = -0.25 corresponds to z = 1
    code, out, _ = run(capsys, "eval", "0f1", "--c", "1.5", "--w", "-0.25")
    assert code == 0
    v = cli.parse_complex(out.splitlines()[0])
    assert abs(v - math.sin(1)) < 1e-13
    # and a genuinely complex w parsed from the "re,im" form
    code, out, _ = run(capsys, "eval", "0f1", "--c", "1.5", "--w", "0.3,0.2")
    assert code == 0
    v = cli.parse_complex(out.splitlines()[0])
    assert abs(v - N.eval_0F1(0.5, 0.3 + 0.2j)) < 1e-13 * abs(v)


@pytest.mark.parametrize("w", ["0.7", "0.65,0.1"])
def test_eval_2f1_route_label_past_series_radius(capsys, w):
    # 0.6 < |w| <= 0.75: eval_2F1 takes the connection at 1 there, never
    # the series or Pfaff
    code, out, _ = run(capsys, "eval", "2f1", "--alpha", "0.2", "--beta",
                       "0.1", "--mu", "0.3", "--w", w)
    assert code == 0
    assert out.splitlines()[1] == "method: one"


# the numerics function each 2F1 route runs, called by eval_2F1 itself
_2F1_ROUTE_FUNCTIONS = {
    "hyp2f1_series": "series",
    "_series_or_pfaff": "pfaff",
    "_eval_2f1_inf_route": "inf",
    "_eval_2f1_one_route": "one",
    "_eval_2f1_lopez_temme": "lopez_temme",
    "_eval_2f1_taylor_fallback": "taylor",
}


@pytest.mark.parametrize("mu,w,route", [
    ("0.3", "0.3", "series"),
    ("0.3", "-1", "pfaff"),
    ("0.3", "-3,1", "inf"),
    ("0.3", "0.7", "one"),
    ("0.3", "0.5,0.9", "lopez_temme"),
    ("2", "-3,1", "lopez_temme"),  # the inf route degenerates at integer mu
    # inf degenerates, the bound at 1 is 0.91, and Re w >= 1
    ("2", "1.5,3", "taylor"),
])
def test_eval_2f1_method_names_the_route_that_ran(capsys, monkeypatch, mu,
                                                   w, route):
    ran = []
    depth = [0]

    def wrap(name, fn):
        def wrapped(*args):
            depth[0] += 1
            try:
                value = fn(*args)
            finally:
                depth[0] -= 1
            if depth[0] == 0:          # a route, not a step inside one
                ran.append(_2F1_ROUTE_FUNCTIONS[name])
            return value
        return wrapped

    for name in _2F1_ROUTE_FUNCTIONS:
        monkeypatch.setattr(N, name, wrap(name, getattr(N, name)))
    code, out, _ = run(capsys, "eval", "2f1", "--alpha", "0.2", "--beta",
                       "0.1", "--mu", mu, "--w", w)
    assert code == 0
    assert ran == [route]
    assert out.splitlines()[1] == f"method: {route}"


def test_eval_hermite_auto_sums_the_asymptotic_series_once(capsys,
                                                           monkeypatch):
    calls = []
    orig = N.eval_2F0_asymptotic

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(N, "eval_2F0_asymptotic", counted)
    code, out, _ = run(capsys, "eval", "hermite", "--lam", "0.3", "--w", "6")
    assert code == 0
    assert out.splitlines()[1] == "method: asymptotic"
    assert len(calls) == 1


# (family, forcible method, parameters, w) at points where auto takes the
# step of that method
_FORCED_AS_AUTO = [
    ("2f1", "series", ("--alpha", "0.1", "--beta", "0.2", "--mu", "0.3"),
     "0.3,0.1"),
    ("gegenbauer", "series", ("--alpha", "0.2", "--lam", "0.1"), "0.3"),
    ("1f1", "series", ("--theta", "0.2", "--alpha", "0.3"), "0.4"),
    ("0f1", "series", ("--alpha", "0.3"), "0.3,0.2"),
    ("hermite", "asymptotic", ("--lam", "0.3"), "6"),
    ("hermite", "asymptotic", ("--lam", "0.3"), "9,-3"),
    ("hermite", "asymptotic", ("--lam", "0.3"), "12,5"),
    # Re w < 0 and |w| < 4: the series does not certify, and neither the
    # 2F0 sum nor the continued fraction is tried (ROADMAP item 14)
    ("hermite", "quadrature", ("--lam", "0.05"), "-2.5,3"),
]


@pytest.mark.parametrize(
    "family, method, params, w", _FORCED_AS_AUTO,
    ids=[f"{f}-{m}-{w}" for f, m, _, w in _FORCED_AS_AUTO])
def test_eval_forced_method_is_the_auto_route(capsys, family, method,
                                              params, w):
    # a forced method runs the step that auto takes there: the same value,
    # route and error
    _, auto, _ = run(capsys, "eval", family, *params, "--w", w)
    code, forced, _ = run(capsys, "eval", family, *params, "--w", w,
                          "--method", method)
    assert code == 0
    assert auto.splitlines()[1] == f"method: {method}"
    assert forced == auto


def test_forced_as_auto_covers_every_forcible_method():
    assert {(f, m) for f, m, _, _ in _FORCED_AS_AUTO} == {
        (f, m) for f, (_, methods, _) in N.EVALUATORS.items()
        for m in methods if m != "auto"}


def test_eval_forced_series_runs_the_series(capsys):
    # S(5) = F((1 - 5)/2) = F(-2): the series diverges there, where auto
    # takes a connection
    argv = ("eval", "gegenbauer", "--alpha", "0.2", "--lam", "0.1",
            "--w", "5")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[1] == "method: inf"
    code, _, err = run(capsys, *argv, "--method", "series")
    assert code == 3
    assert "ConvergenceError" in err
    code, out, _ = run(capsys, "eval", "gegenbauer", "--alpha", "0.2",
                       "--lam", "0.1", "--w", "0.3", "--method", "series")
    assert code == 0
    assert out.splitlines()[1] == "method: series"


# family -> (Lie parameters, w) for the --norm tests: 2F1 and Gegenbauer
# at a point of the route at infinity, Hermite where auto integrates
_NORM_POINTS = {
    "2f1": ((0.1, 0.2, 0.3), "2,0.5"),
    "gegenbauer": ((0.2, 0.1), "5"),
    "1f1": ((0.2, 0.3), "0.4"),
    "hermite": ((0.3,), "4.2"),
    "0f1": ((0.3,), "0.3,0.2"),
}


def _lie_flags(family, lie):
    return [f for name, p in zip(tables.PARAMS[family].lie, lie)
            for f in (f"--{name}", repr(p))]


def _prefactor_times(family, norm, lie, v):
    """v, the family's function at lie, times the prefactors of norm."""
    if norm == "plain":
        return v
    prefactor, base = N.NORMALIZED[family, norm]
    return prefactor(*map(complex, lie)) \
        * _prefactor_times(family, base, lie, v)


# the normalizations that `eval --norm` takes; Gegenbauer's "II" and "0"
# are for quadrature's rows only
@pytest.mark.parametrize("family, norm", sorted(
    k for k in N.NORMALIZED if k[1] in ("bold", "I")))
def test_eval_norm_prints_the_route_and_estimate_of_the_evaluator(
        capsys, family, norm):
    # --norm multiplies the value by its prefactor and keeps the route and
    # the relative error of the plain command
    lie, w = _NORM_POINTS[family]
    argv = ("eval", family, *_lie_flags(family, lie), "--w", w)
    _, plain, _ = run(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--norm", norm)
    assert code == 0
    evaluator, _, nominal = N.EVALUATORS[family]
    v, route, est = evaluator(tuple(map(complex, lie)), cli.parse_complex(w),
                              1e-11, "auto")
    pv = _prefactor_times(family, norm, lie, v)
    assert plain.splitlines()[1] == f"method: {route}"
    assert out.splitlines() == [
        cli.fmt_complex(pv), f"method: {route}",
        f"error: {(nominal if est is None else est) * abs(pv):.2e}"]


def test_eval_norm_runs_at_the_scaled_tol(capsys, monkeypatch):
    # at HYPERCLASS_TOL=1e6 the 2F0 sum meets tol at w = 4.2, with or
    # without --norm
    monkeypatch.setenv("HYPERCLASS_TOL", "1e6")
    argv = ("eval", "hermite", "--lam", "0.3", "--w", "4.2")
    _, plain, _ = run(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--norm", "I")
    assert code == 0
    assert out.splitlines()[1] == plain.splitlines()[1] \
        == "method: asymptotic"


@pytest.mark.parametrize("norm,method", [
    ("bold", "series"), ("I", "series"), ("I", "quadrature"),
    ("bold", "asymptotic")])
def test_eval_norm_with_forced_method_usage_error(capsys, norm, method):
    # --norm with a forced method runs that step where the family has it,
    # and is the plain command's usage error where it has not
    for family in sorted({f for f, n in N.NORMALIZED if n == norm}):
        argv = ("eval", family, *_lie_flags(family, _NORM_POINTS[family][0]),
                "--w", "0.4", "--method", method)
        code, out, err = run(capsys, *argv, "--norm", norm)
        if method in N.EVALUATORS[family][1]:
            _, plain, _ = run(capsys, *argv)
            assert code == 0
            assert out.splitlines()[1] == plain.splitlines()[1] \
                == f"method: {method}"
        else:
            assert code == 2
            assert out == ""
            assert f"usage error: method {method!r} is not available " \
                f"for {family}" in err


@pytest.mark.parametrize("w", ["-0.52,0.10", "-0.52+0.1i", "-0.52"])
def test_eval_negative_value_as_separate_argument(capsys, w):
    params = ("--alpha", "0.1", "--beta", "0.2", "--mu", "0.3")
    code, out, _ = run(capsys, "eval", "2f1", *params, "--w", w)
    assert code == 0
    _, joined, _ = run(capsys, "eval", "2f1", *params, f"--w={w}")
    assert out == joined
    v = cli.parse_complex(out.splitlines()[0])
    assert abs(v - N.eval_2F1(0.1, 0.2, 0.3, cli.parse_complex(w))) \
        < 1e-13 * abs(v)


def test_eval_negative_complex_parameter(capsys):
    code, out, _ = run(capsys, "eval", "0f1", "--alpha", "-0.3,0.1",
                       "--w", "-0.4,-0.2")
    assert code == 0
    v = cli.parse_complex(out.splitlines()[0])
    assert abs(v - N.eval_0F1(-0.3 + 0.1j, -0.4 - 0.2j)) < 1e-13 * abs(v)


def test_eval_hermite_methods_agree(capsys):
    _, out_q, _ = run(capsys, "eval", "hermite", "--lam", "0.3",
                      "--w", "1.2", "--method", "quadrature")
    _, out_a, _ = run(capsys, "eval", "hermite", "--lam", "0.3",
                      "--w", "1.2", "--method", "auto")
    vq = cli.parse_complex(out_q.splitlines()[0])
    va = cli.parse_complex(out_a.splitlines()[0])
    assert abs(vq - va) < 1e-9 * abs(vq)


@pytest.mark.parametrize("method", ["auto", "asymptotic", "quadrature"])
def test_eval_hermite_on_the_negative_axis(capsys, method):
    # S_lambda is entire: forced quadrature evaluates (-inf, 0] by
    # quadrature and auto by the connection series, within its printed
    # error of the quadrature value; only the asymptotic sum refuses it
    for w, printed, v in (("-1", "6.91059703214958", 6.910597032149581),
                          ("0", "1.65862459747746", 1.6586245974774603),
                          ("-3", "17371.4732701544", 17371.473270154413)):
        code, out, err = run(capsys, "eval", "hermite", "--lam", "0.3",
                             f"--w={w}", "--method", method)
        if method == "asymptotic":
            assert code == 3
            assert out == ""
            assert "DomainError: asymptotic sum of S_lambda evaluated on " \
                "(-inf, 0]" in err
        elif method == "quadrature":
            assert code == 0
            assert out.splitlines()[:2] == [printed, "method: quadrature"]
        else:
            assert code == 0
            value, route, error = out.splitlines()
            assert route == "method: series"
            assert abs(cli.parse_complex(value) - v) \
                <= float(error.split()[1])


@pytest.mark.parametrize("w", ["1.2", "0.5,0.7", "6"])
def test_eval_hermite_forced_quadrature_off_the_cut(capsys, w):
    # off the cut, forced quadrature prints the quadrature value and
    # tol * |value|, wherever auto would go
    code, out, _ = run(capsys, "eval", "hermite", "--lam", "0.3", "--w", w,
                       "--method", "quadrature")
    assert code == 0
    v = Q.hermite_S_solution(0.3 + 0j, cli.parse_complex(w), 1e-11)
    assert out.splitlines() == [cli.fmt_complex(v), "method: quadrature",
                                f"error: {1e-11 * abs(v):.2e}"]


def test_eval_norm_variant(capsys):
    code, out, _ = run(capsys, "eval", "1f1", "--theta", "0.2",
                       "--alpha", "0.3", "--w", "0.4", "--norm", "bold")
    assert code == 0
    v = cli.parse_complex(out.splitlines()[0])
    assert abs(v - N.bold_F_1f1(0.2, 0.3, 0.4)) < 1e-13 * abs(v)


def test_eval_missing_params_usage_error(capsys):
    code, _, err = run(capsys, "eval", "2f1", "--a", "1", "--w", "0.5")
    assert code == 2
    assert "usage error" in err


def test_eval_mixed_params_usage_error(capsys):
    code, _, err = run(capsys, "eval", "2f1", "--a", "1", "--beta", "0.2",
                       "--mu", "0.1", "--w", "0.5")
    assert code == 2


def test_eval_gamma_pole_exit_code(capsys):
    # c = -2 puts a pole in the series prefactor
    code, _, err = run(capsys, "eval", "2f1", "--a", "0.5", "--b", "0.5",
                       "--c", "-2", "--w", "0.25")
    assert code == 3
    assert "numeric error" in err


@pytest.mark.parametrize("argv", [
    ("eval", "hermite", "--lam", "300", "--w", "2"),
    ("eval", "hermite", "--lam", "300", "--w", "2", "--method", "quadrature"),
    ("eval", "1f1", "--theta", "0.3", "--alpha", "200", "--w", "1",
     "--norm", "bold"),
    ("eval", "2f1", "--alpha", "200", "--beta", "0.1", "--mu", "0.3",
     "--w", "0.5", "--norm", "bold"),
    ("plotdata", "hermite", "--lam", "300", "--from", "1", "--to", "2",
     "--n", "2"),
], ids=["auto", "quadrature", "1f1_bold", "2f1_bold", "plotdata"])
def test_a_gamma_overflow_exits_3_with_one_line(capsys, argv):
    # Gamma past the double range inside a route or a prefactor is a typed
    # refusal, not a traceback
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("numeric error: DomainError: ")
    assert err.count("\n") == 1


# a real w on the cut of the 2F1 at w or at (1 - w)/2, or at its singular
# point, with the refusal in the family's own terms
_ON_THE_CUT = {
    ("2f1", "--alpha", "0.1", "--beta", "0.2", "--mu", "0.3", "--w", "2"):
    "argument on the cut [1, inf)",
    ("2f1", "--alpha", "0.1", "--beta", "0.2", "--mu", "0.3", "--w", "5"):
    "argument on the cut [1, inf)",
    ("gegenbauer", "--alpha", "0.1", "--lam", "0.2", "--w=-1.5"):
    "argument on the cut (-inf, -1]",
    ("gegenbauer", "--alpha", "0.1", "--lam", "0.2", "--w=-9"):
    "argument on the cut (-inf, -1]",
    ("gegenbauer", "--alpha", "0.1", "--lam", "0.2", "--w=-1"):
    "argument at the singular point -1",
}


@pytest.mark.parametrize("argv", [
    ("hermite", "--lam", "0.3", "--w", "nan"),
    ("hermite", "--lam", "0.3", "--w", "nan", "--method", "quadrature"),
    ("hermite", "--lam", "nan", "--w", "1.5"),
    ("hermite", "--lam", "0.3", "--w", "1,inf"),
    ("2f1", "--alpha", "nan", "--beta", "0.2", "--mu", "0.3", "--w", "0.3"),
    ("2f1", "--alpha", "0.1", "--beta", "0.2", "--mu", "0.3", "--w=inf"),
    ("2f1", "--alpha", "0.1", "--beta", "0.2", "--mu", "0.3", "--w=nan",
     "--method", "series"),
    ("gegenbauer", "--alpha", "0.2", "--lam", "inf", "--w", "0.3"),
    ("gegenbauer", "--alpha", "0.2", "--lam", "0.1", "--w=nan"),
    ("1f1", "--theta", "inf", "--alpha", "0.3", "--w", "0.4"),
    ("1f1", "--theta", "0.2", "--alpha", "0.3", "--w=nan"),
    ("0f1", "--alpha", "inf", "--w", "0.3"),
    ("0f1", "--alpha", "nan", "--w", "0.3", "--method", "series"),
    ("0f1", "--alpha", "0.3", "--w", "0.5,inf"),
] + list(_ON_THE_CUT))
def test_eval_non_finite_solution_input_exit_code(capsys, argv):
    # every family refuses a non-finite parameter or w before any route,
    # and 2F1 and Gegenbauer a w on their cut, wherever it lies on it
    code, out, err = run(capsys, "eval", *argv)
    assert code == 3, out
    reason = _ON_THE_CUT.get(argv, "non-finite argument")
    assert f"DomainError: {reason}" in err


def test_bad_tol_env(capsys, monkeypatch):
    # a scale that is no number, or not finite and positive, would make
    # every check fail (nan, <= 0) or pass (inf) whatever its error
    for raw in ("abc", "nan", "inf", "-1", "0"):
        monkeypatch.setenv("HYPERCLASS_TOL", raw)
        code, _, err = run(capsys, "eval", "0f1", "--c", "1.5", "--w", "0.5")
        assert code == 2, raw
        code, out, err = run(capsys, "verify", "recurrences",
                             "--family", "hermite")
        assert (code, out) == (2, ""), raw
        assert "HYPERCLASS_TOL" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "quadratic")
    assert code == 0
    d = json.loads(out)
    assert list(d) == ["suite", "family", "seed", "checks",
                       "passed", "failed", "skipped"]
    assert d["failed"] == 0
    assert d["passed"] == len(d["checks"]) - d["skipped"]


def test_verify_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "recurrences", "--seed", "4")
    _, out2, _ = run(capsys, "verify", "recurrences", "--seed", "4")
    assert out1 == out2


def test_verify_text_format(capsys):
    code, out, _ = run(capsys, "verify", "quadratic", "--format", "text")
    assert code == 0
    assert "suite=quadratic" in out
    assert "pass" in out


def test_verify_family_filter(capsys):
    code, out, _ = run(capsys, "verify", "symmetries", "--family", "0f1")
    d = json.loads(out)
    assert code == 0
    assert d["family"] == "0f1"
    assert all(c["id"].startswith(("0f1", "counts:0f1")) for c in d["checks"])


def test_verify_strict_tol_fails(capsys, monkeypatch):
    monkeypatch.setenv("HYPERCLASS_TOL", "1e-20")
    code, out, _ = run(capsys, "verify", "recurrences")
    assert code == 1
    assert json.loads(out)["failed"] > 0


def test_tol_env_reaches_the_connection_matrix_checks(capsys, monkeypatch):
    # det and inverse take tol/1000 and tol/10, so the scale reaches them
    monkeypatch.setenv("HYPERCLASS_TOL", "1e-20")
    code, out, _ = run(capsys, "verify", "connection", "--family", "2f1")
    assert code == 1
    status = {c["id"]: c["status"] for c in json.loads(out)["checks"]}
    assert status["conn:2f1:det"] == status["conn:2f1:inverse"] == "fail"


def test_verify_explicit_tol_flag(capsys):
    code, out, _ = run(capsys, "verify", "recurrences", "--tol", "1e-18")
    assert code == 1


def test_verify_kummer_custom_params(capsys):
    code, out, _ = run(capsys, "verify", "kummer", "--alpha", "0.21",
                       "--beta", "0.13", "--mu", "0.34", "--w", "0.4,0.6")
    assert code == 0
    d = json.loads(out)
    assert len(d["checks"]) == 36
    assert d["failed"] == 0


def test_verify_kummer_negative_point(capsys):
    code, out, _ = run(capsys, "verify", "kummer", "--alpha", "0.21",
                       "--beta", "0.13", "--mu", "0.34", "--w", "-0.4,0.6")
    assert code == 0
    d = json.loads(out)
    assert len(d["checks"]) == 36
    assert d["failed"] == 0


@pytest.mark.parametrize("argv", [
    # parameter flags and --w belong to the kummer suite only
    ("verify", "recurrences", "--family", "0f1", "--alpha", "0.3",
     "--w", "5"),
    ("verify", "recurrences", "--alpha", "0.3"),
    ("verify", "all", "--w", "0.4,0.6"),
    # incomplete or missing Kummer parameters
    ("verify", "kummer", "--alpha", "0.3"),
    ("verify", "kummer", "--w", "0.4,0.6"),
    ("verify", "kummer", "--a", "0.2", "--beta", "0.1", "--mu", "0.3"),
    # Kummer's table is a 2F1 table
    ("verify", "kummer", "--family", "1f1", "--alpha", "0.21",
     "--beta", "0.13", "--mu", "0.34"),
])
def test_verify_ignored_input_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize("suite,family,covered", [
    ("kummer", "gegenbauer", "2f1"),
    ("kummer", "1f1", "2f1"),
    ("kummer", "hermite", "2f1"),
    ("kummer", "0f1", "2f1"),
    ("connection", "gegenbauer", "2f1, 1f1, 0f1"),
    ("connection", "hermite", "2f1, 1f1, 0f1"),
])
def test_verify_suite_without_checks_is_usage_error(capsys, suite, family,
                                                    covered):
    code, out, err = run(capsys, "verify", suite, "--family", family)
    assert code == 2
    assert out == ""
    assert "usage error" in err
    assert f"it has checks for {covered}" in err


def test_verify_all_on_one_family_passes(capsys):
    code, out, _ = run(capsys, "verify", "all", "--family", "1f1")
    assert code == 0
    d = json.loads(out)
    assert d["checks"] and d["failed"] == 0


def test_verify_kummer_custom_params_without_point(capsys):
    code, out, _ = run(capsys, "verify", "kummer", "--alpha", "0.21",
                       "--beta", "0.13", "--mu", "0.34")
    assert code == 0
    custom = json.loads(out)
    _, out, _ = run(capsys, "verify", "kummer")
    default = json.loads(out)
    assert len(custom["checks"]) == len(default["checks"]) == 36
    assert custom["failed"] == 0
    assert custom["checks"] != default["checks"]


def test_verify_bad_suite_usage(capsys):
    code, out, err = run(capsys, "verify", "nonsense")
    assert (code, out) == (2, "")
    assert "usage error: unknown suite 'nonsense'" in err
    from hyperclass import verify as V
    assert all(suite in err for suite in V.SUITES)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_json_counts(capsys):
    code, out, _ = run(capsys, "catalog", "2f1", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["counts"] == {"transmutations": 12, "factorizations": 12,
                           "symmetries": 24, "recurrences": 12,
                           "integral_representations": 10}
    for rows in d["sections"].values():
        for r in rows:
            assert set(r) == {"id", "paper_ref"}


def test_catalog_text(capsys):
    code, out, _ = run(capsys, "catalog", "hermite")
    assert code == 0
    assert "[transmutations] (4)" in out
    assert "herm:" in out


# ---------------------------------------------------------------------------
# plotdata
# ---------------------------------------------------------------------------

def test_plotdata_csv(capsys):
    code, out, _ = run(capsys, "plotdata", "0f1", "--c", "1.5",
                       "--from", "0", "--to", "0.5,0.5", "--n", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    first = [float(x) for x in lines[0].split(",")]
    assert first == [0.0, 0.0, 1.0, 0.0]
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == pytest.approx(0.5)
    v = N.eval_0F1(0.5, 0.5 + 0.5j)
    assert last[2] == pytest.approx(v.real)
    assert last[3] == pytest.approx(v.imag)


def test_plotdata_negative_endpoints(capsys):
    code, out, _ = run(capsys, "plotdata", "0f1", "--c", "1.5",
                       "--from", "-0.5,-0.5", "--to", "-0.1-0.2i", "--n", "2")
    assert code == 0
    first, last = ([float(x) for x in ln.split(",")]
                   for ln in out.strip().splitlines())
    assert first[:2] == [-0.5, -0.5]
    assert last[:2] == pytest.approx([-0.1, -0.2])


def test_plotdata_bad_n(capsys):
    code, _, err = run(capsys, "plotdata", "0f1", "--c", "1.5",
                       "--from", "0", "--to", "1", "--n", "0")
    assert code == 2


# ---------------------------------------------------------------------------
# Standard library only
# ---------------------------------------------------------------------------

def test_no_third_party_import():
    # every module, a catalog listing and a quadrature evaluation run
    # without numpy (or any other third-party package) being imported
    script = textwrap.dedent("""
        import importlib, io, pkgutil, sys, contextlib
        import hyperclass
        from hyperclass import cli
        for m in pkgutil.iter_modules(hyperclass.__path__):
            importlib.import_module("hyperclass." + m.name)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["catalog", "gegenbauer"]) == 0
            assert cli.main(["eval", "hermite", "--lam", "0.3", "--w", "1.2",
                             "--method", "quadrature"]) == 0
        print("numpy" in sys.modules)
    """)
    assert _python(script) == "False"


def _python(script: str, *args: str, flags=()) -> str:
    """stdout of a fresh interpreter running `script` on the sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, *flags, "-c", script, *args],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# the exact layer and the standard module only it needs; the numeric layer
EXACT = ("hyperclass.exactalg", "hyperclass.families", "fractions")
EXACT_LAYER = EXACT + ("hyperclass.verify",)
NUMERIC_LAYER = ("hyperclass.numerics", "hyperclass.jet",
                 "hyperclass.quadrature")
EVAL = ("hyperclass.numerics", "hyperclass.jet")


@pytest.mark.parametrize("argv,required,absent", [
    (None, (), EXACT_LAYER + NUMERIC_LAYER),   # cli.build_parser() alone
    (["eval", "2f1", "--alpha", "0.2", "--beta", "0.1", "--mu", "0.3",
      "--w", "0.7"], EVAL, EXACT_LAYER),
    # the rules and the solution evaluators, not the integral rows
    (["eval", "hermite", "--lam", "0.3", "--w", "1.2",
      "--method", "quadrature"], NUMERIC_LAYER,
     EXACT_LAYER + ("hyperclass.rep_rows",)),
    (["eval", "hermite", "--lam", "0.3", "--w", "6"],
     EVAL, EXACT_LAYER + ("hyperclass.quadrature",)),
    (["eval", "gegenbauer", "--alpha", "0.2", "--lam", "0.1", "--w", "0.3",
      "--method", "series"], EVAL, EXACT_LAYER + ("hyperclass.quadrature",)),
    (["eval", "hermite", "--lam", "0.3", "--w", "6", "--norm", "I"],
     EVAL, EXACT_LAYER + ("hyperclass.quadrature",)),
    (["catalog", "gegenbauer"],
     ("hyperclass.families", "hyperclass.exactalg", "hyperclass.tables"),
     ("hyperclass.verify",) + NUMERIC_LAYER),
    # a verify suite loads only the layers it checks with
    (["verify", "quadratic"], EXACT, NUMERIC_LAYER),
    (["verify", "factorizations"], EXACT, NUMERIC_LAYER),
    (["verify", "kummer", "--family", "2f1"], ("hyperclass.numerics",),
     EXACT),
    (["verify", "connection", "--family", "2f1"], ("hyperclass.numerics",),
     EXACT),
    # classical parameters are mapped by `tables`, not the exact layer
    (["eval", "2f1", "--a", "1", "--b", "1", "--c", "2", "--w", "0.5"],
     EVAL + ("hyperclass.tables",), EXACT_LAYER),
    (["plotdata", "0f1", "--c", "1.5", "--from", "0", "--to", "1",
      "--n", "3"], EVAL + ("hyperclass.tables",), EXACT_LAYER),
], ids=["build_parser", "eval_2f1", "eval_hermite_quadrature",
        "eval_hermite_asymptotic", "eval_gegenbauer_series",
        "eval_hermite_norm_I", "catalog", "verify_quadratic",
        "verify_factorizations", "verify_kummer", "verify_connection",
        "eval_2f1_classical", "plotdata_0f1_classical"])
def test_command_loads_only_what_it_runs(argv, required, absent):
    # -S: no site hooks, so sys.modules holds what the command imported
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from hyperclass import cli
        argv = json.loads(sys.argv[1])
        if argv is None:
            cli.build_parser()
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
        print(json.dumps(sorted(sys.modules)))
    """)
    loaded = json.loads(_python(script, json.dumps(argv), flags=("-S",)))
    assert [m for m in required if m not in loaded] == []
    assert [m for m in absent + ("dataclasses",) if m in loaded] == []
