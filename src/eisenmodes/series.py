"""Small-y asymptotic series with exact coefficients.

K_0 and K_1 use the standard small-argument expansions

    K_0(z) = -(log(z/2) + gamma) I_0(z) + sum_{m>=1} H_m (z^2/4)^m / (m!)^2,
    K_1(z) = 1/z + (log(z/2) + gamma) I_1(z)
             - (z/4) sum_{m>=0} (H_m + H_{m+1}) (z^2/4)^m / (m! (m+1)!),

with z = 2 pi |n| y, so log(z/2) = log(y) + log(pi) + log|n| lands in the
scalar ring (log|n| normalized to prime logarithms).  Half-integer-index
homogeneous elements use the finite exponential-polynomial closed form.

The K_0/K_1 series are written once, by ``k_atom_series``, in the log atom
u = log(z/2) + gamma = log y + l_N, with l_N = gamma + log pi + log N
(``_u_terms``, log N over the prime logs of ``factorize``): K_j(2 pi N y) is
the sum over k of pi^k y^k (a_k u + h_k) / den, the pi exponent equal to
the y power, each a_k and h_k an int straight from the closed form of these
expansions, with no power of z^2/4 and no Constant arithmetic, kept as the
nonzero terms (k, 1, a_k) and (k, 0, h_k).  ``flat_small_y_series``
multiplies the K factors of a cell per atom and expands l into its symbols
only at the end, once per kept sum: a two-factor cell is sum y^k pi^k
[h h' + a h' u_1 + h a' u_2 + a a' u_1 u_2], one atom when |n1| = |n2|
(u_1 = u_2), and u_1 u_2 = log^2 y + (l_1 + l_2) log y + l_1 l_2.  Each
factor runs through y^(reach + the number of other factors) and only the
product is cut at reach: K_1 starts at 1/y, so a factor cut first would
lose the terms another factor's 1/y shifts below reach.  The cap on the log(y) power is
checked per pair as the terms are summed, before any sum cancels.

``k_atom_series``, ``_u_terms`` and ``hom_norm_series`` are memoized for
the life of the process: the sub-modes of one assembly share their
frequencies, so the same (index, |n|, order) series and the same atoms are
asked for again and again.  That is safe because all three are pure
functions of ints and their results are never written to (``YLaurent``
operations return new objects, and the other two return tuples).  Each
cache grows by one entry per distinct argument a process touches.

``flat_small_y_series`` works in ints over one denominator on the flat
value of a Bessel product (``bessel.FlatExpr``, key (cell, y power, log
power, pi exponent, rest)), reads no Constant and returns a flat value too,
of a ``Pure`` (one module-level empty ``Pure`` is its shape);
``homogeneous.choose_alpha`` runs it on the flat solution the solver
checked.  It keeps only the terms that can reach below the order: K_0
starts at y^0 and K_1 at y^-1, so a term y^k of a cell with `ones` K_1
factors is kept when k - ones < order.  ``small_y_series`` of an expression
is that series built by ``FlatExpr.expr``, from the expression's own flat
value (``BesselProduct.flat``, flattened once per expression and shared
with the operator check and the residual), one Fraction per nonzero sum.
The expansion has this one implementation.  The tests check it against a
long-form Constant oracle (tests/test_series.py), and the alpha it gives
against the small-y limit of the printed tables under mpmath's besselk
(tests/test_acceptance.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from types import MappingProxyType

from .bessel import BesselProduct, FlatExpr, HomBasis, Pure
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
    "k_atom_series",
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
_PURE = Pure(YLaurent.zero())  # the shape of every series' flat value
_GAMMA = SymbolMonomial({SYM_GAMMA: 1})
_LN_PI = SymbolMonomial({SYM_LN_PI: 1})
_y_exp = itemgetter(0)


@lru_cache(maxsize=None)
def k_atom_series(j: int, n: int, order: int):
    """Series of K_j(2 pi |n| y) through y-exponents < order (j in {0, 1}) in
    its log atom u = log y + l_N, K_j = sum over k of pi^k y^k (a u + h) / den:
    the nonzero terms (k, 1, a) and (k, 0, h), in increasing k, and den.

    Each pair a, h is written straight from the closed form: with N = |n|,

        K_0 at k = 2m:      a = -N^k / (m!)^2,          h = H_m N^k / (m!)^2,
        K_1 at k = 2m + 1:  a = N^k / (m! (m+1)!),      h = -a (H_m + H_{m+1}) / 2,
        K_1 at k = -1:      a = 0,                      h = 1 / (2N),

    each times den, the least common denominator, with no Constant
    arithmetic.  ``_u_terms(N)`` spells u out, with l_N = gamma + log pi +
    sum e_p log p over N = prod p^e_p.
    """
    if j not in (0, 1):
        raise ValueError("index must be 0 or 1")
    if n == 0:
        raise ValueError("n must be nonzero")
    N = abs(n)
    count = max(0, (order - j + 1) // 2)  # the m with 2m + j < order
    top = max(count - 1, 0)
    # den = (top!)^2 L for K_0 and 2N top! (top+1)! L for K_1, with L the lcm
    # of 1..top+j, so that L H_m is an int; reduced by the gcd at the end
    lcm = math.lcm(*range(1, top + j + 1))
    f0, f1 = math.factorial(top), math.factorial(top + j)
    den = f0 * f1 * lcm * (2 * N if j else 1)
    terms = []
    if j == 1 and order > -1:
        terms.append((-1, 0, f0 * f1 * lcm))  # a = 0
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
        terms += [(k, 1, a), (k, 0, h)] if h else [(k, 1, a)]  # h = 0 at m = 0 of K_0
    g = math.gcd(den, *(c for *_, c in terms))
    return tuple((k, lg, c // g) for k, lg, c in terms), den // g


@lru_cache(maxsize=None)
def _u_terms(N: int):
    """The log atom u = log y + l_N as ((log power, pi-free monomial, int), ...):
    log y, then l_N = gamma + log pi + log N, log N over prime logs."""
    return ((1, _ONE, 1), (0, _GAMMA, 1), (0, _LN_PI, 1),
            *((0, SymbolMonomial({sym_ln_prime(p): 1}), e) for p, e in factorize(N)))


def _log_atoms(freqs):
    """The distinct |n| of `freqs`, and per factor its log atom u_i = log y +
    l_{N_i} over those N_i as an int.  A product u_1^d_1 u_2^d_2 is the int
    d_1 + 3 d_2, so the atom of a product of at most two factors is the sum of
    theirs.  The first factor's atom is u_1 = 1; a second factor's is u_1
    too when it has the same |n|, else u_2 = 3."""
    ns = tuple(dict.fromkeys(map(abs, freqs)))
    return ns, (1, 3 if len(ns) == 2 else 1)[:len(freqs)]


def _log_power(atom: int) -> int:
    """The highest log(y) power of an atom u_1^d_1 u_2^d_2 = d_1 + 3 d_2."""
    return atom % 3 + atom // 3


def _int_cell_product(factors, units, reach: int):
    """The K factors of a cell multiplied in ints, per log atom:
    ([(k, atom, int), ...] in increasing k, pi^k understood, den).

    Each factor runs through y^(reach + the number of other factors) and only
    the product is cut at reach.  The first factor's terms are its table, its
    atom being u_1 = 1.  A sum that cancels is kept as a 0, so the atoms
    present at y^k are those of the pairs that land there."""
    if not factors:
        return [(0, 0, 1)], 1
    top = reach + len(factors) - 1
    (index, abs_n), *others = factors
    prod, den = k_atom_series(index, abs_n, top)
    for (index, abs_n), unit in zip(others, units[1:]):
        series, den_f = k_atom_series(index, abs_n, top)
        out = {}
        for ka, ta, ca in prod:
            for kb, lb, cb in series:
                k = ka + kb
                if k >= reach:
                    break
                key = (k, ta + unit * lb)
                out[key] = out.get(key, 0) + ca * cb
        prod, den = sorted(((k, t, c) for (k, t), c in out.items()), key=_y_exp), den * den_f
    return prod, den


def _int_expansion(atom: int, ns):
    """The atom u_1^d_1 u_2^d_2 = d_1 + 3 d_2, u_i = log y + l_{N_i} with N_i
    in `ns`, as ((log power, pi-free monomial, int), ...): 1 or one u_i as it
    is, a product of two multiplied out."""
    d1, d2 = atom % 3, atom // 3
    if d1 + d2 < 2:
        return _u_terms(ns[d2]) if atom else ((0, _ONE, 1),)
    out = {}
    for lg, mono, c in _u_terms(ns[0]):
        for lv, mv, cv in _u_terms(ns[-1]):  # u_1 again when d_1 = 2
            key = (lg + lv, mono * mv)
            out[key] = out.get(key, 0) + c * cv
    return tuple((lg, mono, c) for (lg, mono), c in out.items())


def _terms_below(flat: FlatExpr, order: int):
    """[(K factors, kept terms (k, j, e, rest, q)), ...] per cell in table
    order, cells with no kept term left out: the nonzero terms y^k of a
    cell with `ones` K_1 factors with k - ones < order."""
    shape = flat.shape
    cells = {}  # cell -> (its K factors, how many are K_1, its terms kept)
    for (cell, k, j, e, rest), q in flat.terms.items():
        entry = cells.get(cell)
        if entry is None:
            factors = shape.factors(cell)
            entry = cells[cell] = (factors, sum(index for index, _ in factors), [])
        if q and k - entry[1] < order:
            entry[2].append((k, j, e, rest, q))
    return [(factors, qs) for factors, _, qs in cells.values() if qs]


def flat_small_y_series(flat: FlatExpr, order: int) -> FlatExpr:
    """``small_y_series`` of a flat value in ints, as the flat value of a
    ``Pure``: {((), y_exp, log_exp, pi exponent, rest): int} over one den.

    K_0 starts at y^0 and K_1 at y^-1, so a term y^k of a cell with `ones`
    K_1 factors reaches no lower than y^(k - ones): only the terms with
    k - ones < order are read (``_terms_below``), and reach is taken from
    those.  Per cell the K factors of ``k_atom_series`` are multiplied per
    log atom (``_int_cell_product``).  Each kept term times each product
    term below the order is summed per (y power, log power, pi exponent,
    rest, atom) over one denominator, the cap on the log(y) power checked per
    pair as it is summed; each nonzero sum is then expanded once, u_i = log y + l_{N_i}
    (``_int_expansion``).  Monomials stay split as a pi exponent and the
    pi-free rest (``FlatExpr.expr`` joins them), so only the
    rests (gamma, log pi, the prime logs, zeta values) meet SymbolMonomial
    products.  A sum that cancels in the expansion is kept as a 0.
    """
    ns, units = _log_atoms(flat.shape.freqs)
    products = [(qs, *_int_cell_product(factors, units, order - min(k for k, *_ in qs)))
                for factors, qs in _terms_below(flat, order)]
    den_k = math.lcm(*(den for *_, den in products))
    sums = {}
    for qs, prod, den in products:
        scale = den_k // den
        for k, j, e, rest, q in qs:
            q *= scale
            for kb, atom, c in prod:
                y = k + kb
                if y >= order:
                    break
                if j + _log_power(atom) > LOG_CAP:
                    raise LogCapExceeded(f"log(y)^{j + _log_power(atom)} exceeds cap {LOG_CAP}")
                key = (y, j, e + kb, rest, atom)
                sums[key] = sums.get(key, 0) + q * c
    expansions = {}
    total = {}
    for (k, j, e, rest, atom), c in sums.items():
        if not c:
            continue
        terms = expansions.get(atom)
        if terms is None:
            terms = expansions[atom] = _int_expansion(atom, ns)
        for lg, mono, m in terms:
            key = ((), k, j + lg, e, rest * mono)
            total[key] = total.get(key, 0) + c * m
    return FlatExpr(_PURE, MappingProxyType(total), flat.den * den_k)


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
    below the truncation order.  Term k times the term j of exp(-2 pi |n| y)
    carries (pi y)^(j - k), so the series is one rational per power p of
    pi y, summed before any Constant is built.
    """
    N = abs(n)
    coeffs = {}
    for k in range(max(0, 1 - order), r + 1):
        a_k = Fraction(math.factorial(r + k), math.factorial(k) * math.factorial(r - k) * (4 * N) ** k)
        for j in range(order + k):
            coeffs[j - k] = coeffs.get(j - k, 0) + a_k * Fraction((-2 * N) ** j, math.factorial(j))
    return YLaurent({(p, 0): Constant.pi_power(p, q) for p, q in coeffs.items()})


def small_y_series(expr, order: int) -> AsymptoticSeries:
    """Exact expansion of an expression (or hom basis element) as y -> 0."""
    if isinstance(expr, HomBasis):
        if expr.kind == "K":
            return AsymptoticSeries(hom_norm_series(expr.r, expr.n, order), order)
        return AsymptoticSeries(YLaurent.monomial(-expr.r), order)

    if isinstance(expr, BesselProduct):
        return AsymptoticSeries(flat_small_y_series(expr.flat, order).expr().poly, order)

    raise TypeError(f"no small-y series for {type(expr).__name__}")
