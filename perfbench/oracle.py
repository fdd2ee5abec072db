"""Independent reference values from mpmath, in a process of their own.

Reads a JSON list of eval points (see ``inputs.py``) on stdin and writes a
JSON list of ``[re, im]`` reference values, in the same order, on stdout.
Run apart from the measuring process so that mpmath is in neither
``setup_s`` nor ``peak_rss_mb``.

The references follow the closed forms the library documents, in classical
parameters, with nothing taken from ``hyperclass``:

* 2F1, 1F1, 0F1: ``hyp2f1``, ``hyp1f1``, ``hyp0f1``;
* Gegenbauer S: ``hyp2f1`` at ``(1 - w)/2``;
* Tricomi: ``hyperu(a, 1 + alpha, w)``, ``a = (1 + alpha + theta)/2``;
* the solution at -inf: ``e^w hyperu((1 + alpha - theta)/2, 1 + alpha, -w)``;
* Hermite S: ``w hyperu(lambda/2 + 3/4, 3/2, w^2)``;
* 0F1-tilde: ``(2/sqrt(pi)) w^(-alpha/2) K_alpha(2 sqrt(w))``.
"""

from __future__ import annotations

import json
import sys

DIGITS = 30


def _c(mp, x):
    if isinstance(x, list):
        return mp.mpc(x[0], x[1])
    return mp.mpf(x)


def reference(mp, fn: str, params: list, w):
    """The mpmath value of ``fn(*params, w)``."""
    p = [_c(mp, x) for x in params]
    w = _c(mp, w)
    if fn == "eval_2F1":
        al, be, mu = p
        return mp.hyp2f1((1 + al + be + mu) / 2, (1 + al + be - mu) / 2,
                         1 + al, w)
    if fn == "hyp2f1":
        return mp.hyp2f1(*p, w)
    if fn == "eval_geg_S":
        al, la = p
        return mp.hyp2f1((1 + 2 * al + 2 * la) / 2, (1 + 2 * al - 2 * la) / 2,
                         1 + al, (1 - w) / 2)
    if fn == "eval_1F1":
        th, al = p
        return mp.hyp1f1((1 + al + th) / 2, 1 + al, w)
    if fn == "eval_0F1":
        (al,) = p
        return mp.hyp0f1(1 + al, w)
    if fn == "eval_tricomi":
        th, al = p
        return mp.hyperu((1 + al + th) / 2, 1 + al, w)
    if fn == "eval_conf_minus_inf":
        th, al = p
        return mp.exp(w) * mp.hyperu((1 + al - th) / 2, 1 + al, -w)
    if fn == "eval_hermite_S":
        (la,) = p
        return w * mp.hyperu(la / 2 + mp.mpf(3) / 4, mp.mpf(3) / 2, w * w)
    if fn == "eval_0f1_tilde":
        (al,) = p
        return 2 / mp.sqrt(mp.pi) * mp.power(w, -al / 2) \
            * mp.besselk(al, 2 * mp.sqrt(w))
    raise ValueError(f"no reference for {fn}")


def main() -> int:
    import mpmath

    mpmath.mp.dps = DIGITS
    points = json.load(sys.stdin)
    out = []
    for pt in points:
        v = mpmath.mpc(reference(mpmath, pt["fn"], pt["params"], pt["w"]))
        out.append([float(v.real), float(v.imag)])
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
