"""Seeded inputs of the three workloads.

Everything here is pure standard library and imports nothing from
``hyperclass``: the same seed gives the same inputs, whatever the state of
the library.  Each input is a plain JSON-able dict so that it can be handed
to the measuring process and to the mpmath oracle process unchanged.

An ``eval`` point is ``{"region", "fn", "params", "w"}`` where ``fn`` names
a public evaluator of ``hyperclass.numerics`` and ``params`` are its leading
(Lie-parameter) arguments; complex numbers are ``[re, im]`` pairs.
"""

from __future__ import annotations

import cmath
import math
import random

POINTS_PER_REGION = 240

# region -> (layer metric name, evaluator).  The asymptotic region mixes four
# evaluators and is listed separately.
SERIES_REGIONS = (
    ("2f1_series", "eval_2F1"),
    ("2f1_pfaff", "eval_2F1"),
    ("2f1_inf", "eval_2F1"),
    ("2f1_one", "eval_2F1"),
    ("2f1_taylor", "eval_2F1"),
    ("geg", "eval_geg_S"),
    ("1f1_series", "eval_1F1"),
    ("0f1_series", "eval_0F1"),
)
QUADRATURE_REGIONS = (
    ("tricomi", "eval_tricomi"),
    ("conf_minus_inf", "eval_conf_minus_inf"),
    ("hermite", "eval_hermite_S"),
    ("0f1_tilde", "eval_0f1_tilde"),
)
ASYMPTOTIC_FNS = ("eval_tricomi", "eval_conf_minus_inf", "eval_hermite_S",
                  "eval_0f1_tilde")
REGIONS = tuple(r for r, _ in SERIES_REGIONS) + ("asymptotic",) \
    + tuple(r for r, _ in QUADRATURE_REGIONS)

# Known-bad points: the series evaluators sum through catastrophic
# cancellation and return a wrong value without raising.  They do not depend
# on the seed, so each round fails exactly these operations.
KNOWN_BAD = (
    {"region": "known_bad", "fn": "eval_1F1", "params": [0.3, 0.2],
     "w": [0.0, 40.0]},
    {"region": "known_bad", "fn": "eval_0F1", "params": [-0.5],
     "w": [-500.0, 0.0]},
    {"region": "known_bad", "fn": "hyp2f1", "params": [[50.0, 0.1], -49.5, 2.5],
     "w": [0.5, 0.1]},
)


def cpair(z: complex) -> list:
    return [z.real, z.imag]


def cval(x) -> complex:
    """Inverse of :func:`cpair`; plain numbers pass through."""
    if isinstance(x, list):
        return complex(x[0], x[1])
    return complex(x)


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    """Uniform on (-hi, -lo) u (lo, hi): generic, never near an integer."""
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _polar(rng, rlo, rhi, philo, phihi) -> complex:
    return cmath.rect(rng.uniform(rlo, rhi), rng.uniform(philo, phihi))


def _off_positive_axis(rng, rlo, rhi, margin) -> complex:
    """|w| in (rlo, rhi), arg w in (margin, 2 pi - margin)."""
    return _polar(rng, rlo, rhi, margin, 2 * math.pi - margin)


def _point_2f1(rng, region):
    params = [_signed(rng, 0.1, 0.45), _signed(rng, 0.1, 0.45),
              _signed(rng, 0.1, 0.45)]
    while True:
        if region == "2f1_series":
            w = _polar(rng, 0.05, 0.58, 0, 2 * math.pi)
        elif region == "2f1_pfaff":
            z = _polar(rng, 0.1, 0.58, 0, 2 * math.pi)
            w = z / (z - 1)
        elif region == "2f1_inf":
            w = _off_positive_axis(rng, 1.8, 6.0, 0.35)
        elif region == "2f1_one":
            w = 1 + cmath.rect(rng.uniform(0.1, 0.45),
                               rng.uniform(0.35, 2 * math.pi - 0.35))
        else:  # 2f1_taylor: the ring |w| ~ |1 - w| ~ 1
            w = complex(0.5 + rng.uniform(-0.08, 0.08),
                        rng.choice((-1, 1)) * rng.uniform(0.75, 1.15))
        # keep each point inside its region, clear of the series disk
        # (|w| <= 0.6) and the Pfaff disk (|w/(w-1)| <= 0.6)
        if region == "2f1_series" or abs(w) > 0.62 and (
                region == "2f1_pfaff" or abs(w / (w - 1)) > 0.62):
            return params, w


def _point(rng: random.Random, region: str, fn: str):
    if fn == "eval_2F1":
        return _point_2f1(rng, region)
    if region == "geg":
        # S(w) = F((1 - w)/2): cut on (-inf, -1]
        return ([_signed(rng, 0.1, 0.45), _signed(rng, 0.05, 0.2)],
                _polar(rng, 0.1, 2.5, -2.6, 2.6))
    if region == "1f1_series":
        return ([rng.uniform(-0.9, 0.9), _signed(rng, 0.1, 0.45)],
                _polar(rng, 0.5, 10.0, 0, 2 * math.pi))
    if region == "0f1_series":
        return [_signed(rng, 0.1, 0.45)], _polar(rng, 0.5, 25.0, 0,
                                                 2 * math.pi)
    big = region == "asymptotic"
    if fn == "eval_tricomi":
        r = (40.0, 80.0) if big else (0.5, 3.5)
        return ([rng.uniform(-0.6, 0.6), _signed(rng, 0.1, 0.45)],
                _polar(rng, *r, -2.2, 2.2))
    if fn == "eval_conf_minus_inf":
        r = (40.0, 80.0) if big else (0.5, 3.5)
        return ([rng.uniform(-0.6, 0.6), _signed(rng, 0.1, 0.45)],
                _off_positive_axis(rng, *r, 0.9))
    if fn == "eval_hermite_S":
        r = (6.0, 12.0) if big else (0.4, 3.5)
        return [rng.uniform(-0.45, 0.45)], _polar(rng, *r, -0.7, 0.7)
    if fn == "eval_0f1_tilde":
        r = (300.0, 800.0) if big else (0.5, 10.0)
        return [_signed(rng, 0.1, 0.45)], _polar(rng, *r, -1.2, 1.2)
    raise ValueError(f"no sampler for {region}/{fn}")


class _Stratified:
    """Stands in for ``random.Random`` in the samplers above: a point's first
    draws come from one row of a Latin hypercube, so that every seed covers
    each parameter range evenly and the cost mix of a region (its median
    and its slowest points alike) hardly changes from seed to seed.  Draws
    beyond the row (rejected points) come from the seeded generator."""

    def __init__(self, row, rng: random.Random):
        self._row = list(row)
        self._rng = rng

    def random(self) -> float:
        return self._row.pop() if self._row else self._rng.random()

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

    def choice(self, seq):
        return seq[min(int(self.random() * len(seq)), len(seq) - 1)]


def _latin_hypercube(rng: random.Random, n: int, dims: int) -> list:
    cols = []
    for _ in range(dims):
        perm = list(range(n))
        rng.shuffle(perm)
        cols.append([(p + rng.random()) / n for p in perm])
    return list(zip(*cols))


# uniforms a point consumes at most: three parameters (sign and size each)
# and a modulus and an argument
_DRAWS_PER_POINT = 8


def eval_points(seed: int, per_region: int = POINTS_PER_REGION) -> list:
    """One round of the ``eval`` workload: ``per_region`` seeded points in
    every region (the asymptotic one split evenly over its evaluators),
    plus the known-bad points, in a seeded shuffled order."""
    rng = random.Random(seed)
    pts = []
    regions = [(r, (fn,)) for r, fn in SERIES_REGIONS] \
        + [("asymptotic", ASYMPTOTIC_FNS)] \
        + [(r, (fn,)) for r, fn in QUADRATURE_REGIONS]
    for region, fns in regions:
        for fn in fns:
            rows = _latin_hypercube(rng, per_region // len(fns),
                                    _DRAWS_PER_POINT)
            for row in rows:
                params, w = _point(_Stratified(reversed(row), rng), region,
                                   fn)
                pts.append({"region": region, "fn": fn, "params": params,
                            "w": cpair(complex(w))})
    pts.extend(dict(p) for p in KNOWN_BAD)
    rng.shuffle(pts)
    return pts


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def _fmt(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def cli_commands(seed: int) -> list:
    """One round of the ``cli`` workload: one launch of each kind, with
    seeded parameters.  Returns dicts ``{"kind", "argv", "point"}`` where
    ``point`` is the eval point the printed value is checked against."""
    rng = random.Random(seed)
    (al, be, mu), w = _point_2f1(rng, rng.choice(("2f1_series", "2f1_inf",
                                                  "2f1_one")))
    (la,), wh = _point(rng, "hermite", "eval_hermite_S")
    # "--flag=value": a value such as "-0.5,0.3" would read as an option
    return [
        {"kind": "eval",
         "argv": ["eval", "2f1", f"--alpha={al!r}", f"--beta={be!r}",
                  f"--mu={mu!r}", f"--w={_fmt(w)}"],
         "point": {"region": "cli", "fn": "eval_2F1", "params": [al, be, mu],
                   "w": cpair(w)}},
        {"kind": "eval_quadrature",
         "argv": ["eval", "hermite", f"--lam={la!r}", f"--w={_fmt(wh)}",
                  "--method", "quadrature"],
         "point": {"region": "cli", "fn": "eval_hermite_S", "params": [la],
                   "w": cpair(wh)}},
        {"kind": "verify_quadratic", "argv": ["verify", "quadratic"],
         "point": None},
        {"kind": "verify_kummer",
         "argv": ["verify", "kummer", "--family", "2f1", "--seed",
                  str(seed)],
         "point": None},
        {"kind": "catalog",
         "argv": ["catalog", "gegenbauer", "--format", "json"],
         "point": None},
    ]
