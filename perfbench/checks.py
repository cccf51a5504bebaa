"""Answer checks the benchmark applies to every solution it times.

* exact recheck: the operator applied to the particular part minus the full
  source is the zero expression, in exact arithmetic;
* boundary recheck: the small-y series of particular + alpha * basis has no
  term at or below y^-r (o(y^-r)); an obstructed mode must really carry such
  a term in its particular part;
* numeric residual at given y: the package's double-precision operator
  residual is at most RESIDUAL_BOUND, or, where the terms that cancel are so
  large that double precision cannot resolve that, the absolute residual is
  at most NOISE_FLOOR times the sum of their magnitudes.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from eisenmodes import bessel, numerics, series
from eisenmodes.laurent import YLaurent
from eisenmodes.scalars import Constant

RESIDUAL_BOUND = 1e-9  # the relative bound of the package's acceptance criterion 3
NOISE_FLOOR = 1e-12  # backward error a double evaluation resolves; observed <= 1e-16


class CheckFailed(Exception):
    pass


def exact_recheck(mode) -> None:
    part, lam = mode.particular, mode.params.lam
    if isinstance(part, bessel.DoubleBessel):
        image = bessel.apply_P(lam, part)
    elif isinstance(part, bessel.SingleBessel):
        image = bessel.apply_L(lam, part)
    else:
        image = bessel.apply_euler(lam, part)
    if not (image - mode.source.full()).is_zero():
        raise CheckFailed(f"exact recheck failed at ({mode.n1}, {mode.n2})")


def boundary_recheck(mode) -> None:
    r = mode.params.r
    if mode.alpha_free or r is None:
        return
    total = series.small_y_series(mode.particular, -r + 1)
    if mode.alpha is not None:
        total = total + series.small_y_series(mode.hom_basis, -r + 1).scale(mode.alpha)
    singular = [k for k, _ in total.terms.terms() if k <= -r]
    if mode.obstruction is None and singular:
        raise CheckFailed(f"alpha leaves y^{min(singular)} at ({mode.n1}, {mode.n2})")
    if mode.obstruction is not None and not singular:
        raise CheckFailed(f"reported obstruction is absent at ({mode.n1}, {mode.n2})")


def _magnitude(expr, y: float, env) -> float:
    """Sum over all terms of |coefficient * y^k log(y)^j * K factors|."""
    log_y = abs(math.log(y))

    def absolute(poly):
        out = {}
        for (k, j), c in poly.terms().items():
            size = sum(abs(float(q) * math.prod(env.value(s) ** e for s, e in mono.items()))
                       for mono, q in c.terms().items()) * log_y**j
            out[(k, 0)] = out.get((k, 0), 0.0) + size
        if not all(map(math.isfinite, out.values())):
            raise CheckFailed("residual terms overflow double precision")
        return YLaurent({key: Constant.from_rational(Fraction(v)) for key, v in out.items()})

    if isinstance(expr, bessel.Pure):
        return numerics.eval_expr(bessel.Pure(absolute(expr.poly)), y, env)
    return numerics.eval_expr(expr.map_cells(absolute), y, env)


def residual_check(mode, y: float, env=numerics.DEFAULT_ENV):
    """Return (relative residual, passed only by the noise-floor clause)."""
    rel = numerics.residual(mode, y, env)
    if rel <= RESIDUAL_BOUND:
        return rel, False
    part, lam = mode.particular, mode.params.lam
    nsum = mode.n1 + mode.n2
    shift = lam + 4 * math.pi**2 * nsum * nsum * y * y
    d2 = bessel.differentiate(bessel.differentiate(part))
    size = (y * y * _magnitude(d2, y, env) + shift * _magnitude(part, y, env)
            + _magnitude(mode.source.full(), y, env))
    if mode.alpha is not None and mode.hom_basis is not None:
        size += 2 * shift * abs(mode.alpha.evaluate(env) * numerics.eval_hom_normalized(mode.hom_basis, y))
    if not math.isfinite(size) or numerics.residual(mode, y, env, scale=1.0) > NOISE_FLOOR * size:
        raise CheckFailed(f"numeric residual {rel:.2e} at y={y:.4g} for ({mode.n1}, {mode.n2})")
    return rel, True


def coeff_bits(mode) -> int:
    """Largest numerator or denominator bit size among the returned coefficients."""
    part = mode.particular
    polys = [part.poly] if isinstance(part, bessel.Pure) else list(part.table.values())
    consts = [c for p in polys for c in p.terms().values()]
    if mode.alpha is not None:
        consts.append(mode.alpha)
    return max((max(q.numerator.bit_length(), q.denominator.bit_length())
                for c in consts for q in c.terms().values()), default=0)


class Digest:
    """sha256 over canonical JSON documents (sorted keys, no spaces), in the
    order they are added."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, obj) -> None:
        self._h.update(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()
