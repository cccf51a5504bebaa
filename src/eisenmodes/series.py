"""Small-y asymptotic series with exact coefficients.

K_0 and K_1 use the standard small-argument expansions

    K_0(z) = -(log(z/2) + gamma) I_0(z) + sum_{m>=1} H_m (z^2/4)^m / (m!)^2,
    K_1(z) = 1/z + (log(z/2) + gamma) I_1(z)
             - (z/4) sum_{m>=0} (H_m + H_{m+1}) (z^2/4)^m / (m! (m+1)!),

with z = 2 pi |n| y, so log(z/2) = log(y) + log(pi) + log|n| lands in the
scalar ring (log|n| normalized to prime logarithms).  Half-integer-index
homogeneous elements use the finite exponential-polynomial closed form.

The K_0/K_1 series are written once, by ``k_flat_series``: each coefficient
straight from the closed form of these expansions, with no power of z^2/4
and no Constant arithmetic, in the split form its products read: a tuple of
(y_exp, log_exp, pi exponent, pi-free rest, int) in increasing y_exp, and
one denominator.  ``k_log_series`` is the polynomial view of that table,
each coefficient rebuilt by ``bessel._rebuild`` as the operators rebuild
theirs.

``k_flat_series``, ``k_log_series`` and ``hom_norm_series`` are memoized for
the life of the process: the sub-modes of one assembly share their
frequencies, so the same (index, |n|, order) series is asked for again and
again.  That is safe because all three are pure functions of ints and their
results are never written to (``YLaurent`` operations return new objects, and
``k_flat_series`` returns tuples).  Each cache grows by one entry per distinct
argument triple a process touches.

``flat_small_y_series`` is ``small_y_series`` in ints on the flat value of a
Bessel product (``bessel.FlatExpr``, key (cell, y power, log power, pi
exponent, rest)), the route ``homogeneous.choose_alpha`` takes with the flat
solution the solver checked; it reads no Constant.  It keeps only the terms
that can reach below the order: K_0 starts at y^0 and K_1 at y^-1, so a term
y^k of a cell with `ones` K_1 factors is kept when k - ones < order.
``small_y_series`` multiplies the Constant series of ``k_log_series`` over
every term of an expression.  The two routes share the K table and no
product, truncation or division arithmetic, so each checks the other's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import itemgetter

from .bessel import BesselProduct, FlatExpr, HomBasis, Pure, _rebuild
from .laurent import LOG_CAP, LogCapExceeded, YLaurent
from .scalars import (
    SYM_GAMMA,
    SYM_LN_PI,
    Constant,
    SymbolMonomial,
    factorize,
    sym_ln_prime,
)

__all__ = [
    "AsymptoticSeries",
    "k_log_series",
    "k_flat_series",
    "flat_small_y_series",
    "hom_norm_series",
    "hom_norm_scale_description",
    "small_y_series",
]


@dataclass(frozen=True)
class AsymptoticSeries:
    """Truncated expansion: terms with y-exponent < order are exact."""

    terms: YLaurent
    order: int

    def __post_init__(self):
        object.__setattr__(self, "terms", self.terms.truncate(self.order))

    def coeff(self, y_exp: int, log_exp: int = 0) -> Constant:
        if y_exp >= self.order:
            raise ValueError(f"y^{y_exp} is beyond the truncation order {self.order}")
        return self.terms.coeff(y_exp, log_exp)

    def __add__(self, other: "AsymptoticSeries") -> "AsymptoticSeries":
        order = min(self.order, other.order)
        return AsymptoticSeries(self.terms + other.terms, order)

    def scale(self, factor) -> "AsymptoticSeries":
        return AsymptoticSeries(self.terms.scale(factor), self.order)


_ONE = SymbolMonomial()
_GAMMA = SymbolMonomial({SYM_GAMMA: 1})
_LN_PI = SymbolMonomial({SYM_LN_PI: 1})
_y_exp = itemgetter(0)


@lru_cache(maxsize=None)
def k_flat_series(j: int, n: int, order: int):
    """Series of K_j(2 pi |n| y) through y-exponents < order (j in {0, 1}), as
    ((y_exp, log_exp, pi exponent, rest, int), ...), den.

    Each coefficient is written straight from the closed form: with N = |n|
    and l = log(pi) + gamma + sum e_p log(p) over N = prod p^e_p,

        K_0: y^{2m} pi^{2m} N^{2m} / (m!)^2 * (-log y - l + H_m),
        K_1: y^{-1} / (2 pi N)
             + y^{2m+1} pi^{2m+1} N^{2m+1} / (m! (m+1)!)
               * (log y + l - (H_m + H_{m+1}) / 2),

    for y exponents k below order, in increasing k, with no Constant
    arithmetic.  Each term's monomial is split as ``_mul_flat`` reads it, a
    pi exponent and the pi-free rest; each int is its coefficient times den,
    the lcm of the coefficients' denominators, as ``bessel._flatten`` writes
    them.
    """
    if j not in (0, 1):
        raise ValueError("index must be 0 or 1")
    if n == 0:
        raise ValueError("n must be nonzero")
    N = abs(n)
    logs = [(_GAMMA, 1), (_LN_PI, 1)] + [(SymbolMonomial({sym_ln_prime(p): 1}), e)
                                         for p, e in factorize(N)]
    count = max(0, (order - j + 1) // 2)  # the m with 2m + j < order
    top = max(count - 1, 0)
    # den = (top!)^2 L for K_0 and 2N top! (top+1)! L for K_1, with L the lcm
    # of 1..top+j, so that L H_m is an int; reduced by the gcd at the end
    lcm = math.lcm(*range(1, top + j + 1))
    f0, f1 = math.factorial(top), math.factorial(top + j)
    den = f0 * f1 * lcm * (2 * N if j else 1)
    terms = []
    if j == 1 and order > -1:
        terms.append((-1, 0, -1, _ONE, f0 * f1 * lcm))
    harmonic = 0  # L H_m
    for m in range(count):
        k = 2 * m + j
        base = N**k * (f0 // math.factorial(m)) * (f1 // math.factorial(m + j))
        if j == 0:
            harmonic += lcm // m if m else 0
            a, h = -base * lcm, base * harmonic
        else:
            a, h = 2 * N * base * lcm, -N * base * (2 * harmonic + lcm // (m + 1))
            harmonic += lcm // (m + 1)
        terms.append((k, 1, k, _ONE, a))
        terms.extend((k, 0, k, log, e * a) for log, e in logs)
        if h:
            terms.append((k, 0, k, _ONE, h))
    g = math.gcd(den, *(c for *_, c in terms))
    return tuple((*key, c // g) for *key, c in terms), den // g


@lru_cache(maxsize=None)
def k_log_series(j: int, n: int, order: int) -> YLaurent:
    """``k_flat_series(j, n, order)`` as a polynomial, each coefficient divided
    by den once (``bessel._rebuild``)."""
    terms, den = k_flat_series(j, n, order)
    return _rebuild(Pure(YLaurent.zero()), {((), *key): c for *key, c in terms}, den).poly


def _mul_flat(a, b, order: int):
    """The product of two flat term lists [(k, j, pi exponent, rest, int)], b
    in increasing k, without the terms at y^order and above."""
    out = {}
    for ka, ja, ea, ra, ca in a:
        for kb, jb, eb, rb, cb in b:
            k = ka + kb
            if k >= order:
                break
            j = ja + jb
            if j > LOG_CAP:
                raise LogCapExceeded(f"log(y)^{j} exceeds cap {LOG_CAP}")
            key = (k, j, ea + eb, ra * rb)
            out[key] = out.get(key, 0) + ca * cb
    return out


def flat_small_y_series(flat: FlatExpr, order: int):
    """``small_y_series`` of a flat value in ints, as
    ({(y_exp, log_exp, pi exponent, rest): int}, den).

    K_0 starts at y^0 and K_1 at y^-1, so a term y^k of a cell with `ones`
    K_1 factors reaches no lower than y^(k - ones): only the terms with
    k - ones < order are read, and reach is taken from those.  Per cell
    the K factors come from ``k_flat_series`` and are multiplied as in
    ``small_y_series``, each through y^(reach + the number of other factors)
    and only the products truncated at reach: every other factor reaches
    down by at most 1/y, which shifts those terms below reach.  The cells are
    summed over one denominator.  Monomials stay split as a pi
    exponent and the pi-free rest (``bessel._times_pi(rest, e)`` joins them),
    so only the rests (gamma, log pi, the prime logs, zeta values) meet
    SymbolMonomial products.  A sum that cancels is kept as a 0.
    """
    shape = flat.shape
    cells = {}  # cell -> (its K factors, how many are K_1, its terms kept), in table order
    for (cell, k, j, e, rest), q in flat.terms.items():
        entry = cells.get(cell)
        if entry is None:
            factors = shape.factors(cell)
            entry = cells[cell] = (factors, sum(index for index, _ in factors), [])
        if q and k - entry[1] < order:
            entry[2].append((k, j, e, rest, q))
    products = []
    for factors, _, qs in cells.values():
        if not qs:
            continue
        reach = order - min(k for k, *_ in qs)
        prod, den = [(0, 0, 0, _ONE, 1)], 1
        for pos, (index, abs_n) in enumerate(factors):
            series, den_f = k_flat_series(index, abs_n, reach + len(factors) - 1)
            prod = series if pos == 0 else sorted(
                ((*key, c) for key, c in _mul_flat(prod, series, reach).items()), key=_y_exp)
            den *= den_f
        products.append((_mul_flat(qs, prod, order), den))
    den_k = math.lcm(*(den for _, den in products))
    total = {}
    for prod, den in products:
        scale = den_k // den
        for key, c in prod.items():
            total[key] = total.get(key, 0) + c * scale
    return total, flat.den * den_k


def hom_norm_scale_description(r: int, n: int) -> str:
    """How the normalized basis relates to sqrt(y) K_{r+1/2}(2 pi |n| y)."""
    return (
        f"normalized basis = 2*sqrt({abs(n)}) * sqrt(y) * K_{{{r}+1/2}}(2*pi*{abs(n)}*y)"
        " = exp(-2*pi*|n|*y) * sum_{k<=r} (r+k)!/(k!(r-k)!) (4*pi*|n|*y)^{-k}"
    )


@lru_cache(maxsize=None)
def hom_norm_series(r: int, n: int, order: int) -> YLaurent:
    """Series of the normalized decaying basis 2 sqrt|n| sqrt(y) K_{r+1/2}(2 pi |n| y).

    The closed form is exp(-2 pi |n| y) * sum_{k=0}^{r} a_k (4 pi |n| y)^{-k}
    with a_k = (r+k)!/(k!(r-k)!); all series coefficients are rational pi
    monomials (no logs).  Term k starts at y^{-k}, so only k > -order reach
    below the truncation order.
    """
    N = abs(n)
    terms = {}
    for k in range(max(0, 1 - order), r + 1):
        a_k = Fraction(math.factorial(r + k), math.factorial(k) * math.factorial(r - k))
        pref = Constant.pi_power(-k, a_k / Fraction(4 * N) ** k)
        # multiply by exp(-2 pi N y) expansion
        j = 0
        while -k + j < order:
            c = pref * Constant.pi_power(j, Fraction((-2 * N) ** j, math.factorial(j)))
            key = (-k + j, 0)
            terms[key] = terms.get(key, Constant.zero()) + c
            j += 1
    return YLaurent(terms).truncate(order)


def small_y_series(expr, order: int) -> AsymptoticSeries:
    """Exact expansion of an expression (or hom basis element) as y -> 0."""
    if isinstance(expr, HomBasis):
        if expr.kind == "K":
            return AsymptoticSeries(hom_norm_series(expr.r, expr.n, order), order)
        return AsymptoticSeries(YLaurent.monomial(-expr.r), order)

    if isinstance(expr, BesselProduct):
        # The K_1 series start at 1/y, so each factor is expanded below
        # y^(reach + the number of other factors) and only the product is
        # truncated: a factor truncated first would lose the terms another
        # factor's 1/y shifts below reach.
        # Seeding reduce with one would truncate the first factor that way, so
        # only the product of no factors (Pure) is one.
        total = YLaurent.zero()
        for cell, q in expr.table.items():
            reach = order - q.min_degree()
            factors = [k_log_series(i, n, reach + len(expr.freqs) - 1)
                       for i, n in expr.factors(cell)]
            prod = (reduce(lambda a, b: a.mul_truncated(b, reach), factors) if factors
                    else YLaurent.one())
            total = total + q.mul_truncated(prod, order)
        return AsymptoticSeries(total, order)

    raise TypeError(f"no small-y series for {type(expr).__name__}")
