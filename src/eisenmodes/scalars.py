"""Exact scalar arithmetic for the symbolic constants of the mode solver.

Every closed-form coefficient produced by this package lives in the ring of
finite rational combinations of monomials over the symbol set

    pi, gamma (Euler-Mascheroni), log(pi), log(p) for primes p,
    zeta(odd k >= 3), zeta'(m).

``Constant`` is that ring.  The exact linear solves of the mode solver need
no larger field: the mode operators are graded by the power of pi, so their
systems are solved over the plain rationals and each solved value maps
back to a rational times a monomial of this ring.

``Constant`` and ``laurent.YLaurent`` share one sparse-sum core,
``_SparseSum``: a dict ``_terms`` from each key (a monomial, or a (y, log)
power pair) to its nonzero coefficient.  It states once the trusted build
(``_trusted``, ``_of_sums``), ``zero``, ``terms``, ``is_zero``, negation,
the sum that drops the keys it cancels, scaling and same-type equality.  The
zero rule: no zero coefficient is stored, so the zero element is the empty
dict, and it is the one element whose ``bool`` is False.  Constructors
validate and normalise their input; ring operations on normal operands build
their results without a second pass.
``Constant``'s ``+ - * /`` take a Constant, an int or a Fraction on either
side and return NotImplemented for any other operand, so a ``YLaurent``
operand meets its own operators and a float is Python's TypeError.  Where a
number (an int or a Fraction) must become a Constant, as in a sum or a
``YLaurent`` coefficient, ``Constant.from_rational`` lifts it and validates
it once (``_operand``).  A product or quotient by a number scales the
coefficients without a lift, and equality with a number lifts nothing: it
compares the terms with {1: q}, or {} for zero.
A sum of many products, such as a coefficient of a ``YLaurent`` product,
adds the monomial products of all its pairs into one dict and builds one
Constant from it (``_add_product``, ``Constant._of_sums``).

The symbol kinds are one table, ``_KINDS``: in canonical order, each kind's
rule for the arguments the package writes it with, its LaTeX and its mpmath
value.  The symbol sort key, the text reader, the LaTeX writer, ``sym_zeta``,
``sym_zeta_prime`` and ``numerics.symbol_value`` all read it.

``SymbolMonomial`` products and powers, and each monomial's sort key and
JSON symbol names, are memoized for the life of the process
(``_monomial_product``, ``_monomial_power``, ``_sort_key``, ``_json_names``),
as ``bessel._times_pi`` is: the checks of a mode meet the same few
monomials again and again.  That is safe because a monomial is an immutable
tuple and the cached values are tuples too.  Each cache grows by one entry
per distinct pair of operands (or monomial, for the last two) a process
touches, and the modes a process solves share their few symbols (pi, the
zeta values, gamma and the logs of their primes), so that set stays small.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterable, Mapping, Tuple

__all__ = [
    "Symbol",
    "SymbolMonomial",
    "Constant",
    "PI",
    "GAMMA",
    "LN_PI",
    "ln_prime",
    "zeta_odd",
    "zeta_prime",
    "zeta_even",
    "zeta_value",
    "log_normalize",
    "factorize",
    "bernoulli",
]

# A symbol is a (kind, arg) pair; arg is None except for parametric kinds.
Symbol = Tuple[str, object]

SYM_PI: Symbol = ("pi", None)
SYM_GAMMA: Symbol = ("gamma", None)
SYM_LN_PI: Symbol = ("ln_pi", None)


def sym_ln_prime(p: int) -> Symbol:
    return ("ln_prime", p)


def sym_zeta(k: int) -> Symbol:
    if not _KINDS["zeta"][0](k):
        raise ValueError(f"symbolic zeta is reserved for odd arguments >= 3, got {k}")
    return ("zeta", k)


def sym_zeta_prime(m: int) -> Symbol:
    if not _KINDS["zeta_prime"][0](m):
        raise ValueError(f"symbolic zeta' is reserved for arguments other than the pole 1, got {m}")
    return ("zeta_prime", m)


def _symbol_key(sym: Symbol):
    kind, arg = sym
    return (_RANK[kind], arg if arg is not None else -1)


def _symbol_str(sym: Symbol) -> str:
    kind, arg = sym
    return kind if arg is None else f"{kind}({arg})"


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least composite that passes all 13 bases (1287836182261 * 2575672364521)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Whether p is a prime below ``_PRIME_BOUND``, by the strong probable-prime
    test to the 13 prime bases up to 41, which no composite below that bound
    passes: 13 modular powers, where trial division of a large p would never
    end.  A larger p is refused before any power."""
    if p < 2 or p >= _PRIME_BOUND or any(p % b == 0 for b in _PRIME_BASES):
        return p in _PRIME_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s, d odd
    for b in _PRIME_BASES:
        # p passes base b if b^d is 1 or one of b^d, b^(2d), ..., b^(2^(s-1) d) is -1
        x = pow(b, (p - 1) >> s, p)
        if x not in (1, p - 1) and all((x := x * x % p) != p - 1 for _ in range(s - 1)):
            return False
    return True


# Every symbol kind, in the canonical order of SymbolMonomial: (the rule of
# the arguments the package writes it with, None for a kind without one; its
# LaTeX, {} standing for the argument; its value as value(mpmath, arg)).
_KINDS = {
    "pi": (None, r"\pi", lambda mp, _: +mp.pi),
    "gamma": (None, r"\gamma", lambda mp, _: +mp.euler),
    "ln_pi": (None, r"\log \pi", lambda mp, _: mp.log(mp.pi)),
    "ln_prime": (_is_prime, r"\log {}", lambda mp, p: mp.log(p)),
    "zeta": (lambda k: k >= 3 and k % 2 == 1, r"\zeta({})", lambda mp, k: mp.zeta(k)),
    "zeta_prime": (lambda m: m != 1, r"\zeta'({})", lambda mp, m: mp.zeta(m, derivative=1)),
}
_RANK = {kind: rank for rank, kind in enumerate(_KINDS)}
_SYMBOL_TEXT = re.compile(r"([a-z_]+)(?:\((0|-?[1-9][0-9]*)\))?")


def _symbol_from_str(text: str) -> Symbol:
    """The symbol _symbol_str writes as text, where the package writes it:
    a kind of ``_KINDS``, with an argument exactly where the kind has a rule
    and only one the rule passes (zeta(k) for an odd k >= 3, ln_prime(p) for
    a prime p below ``_PRIME_BOUND``, the bound of the prime test,
    zeta_prime(m) for m != 1), written as str(int) writes it.  Any other text
    is a ValueError."""
    match = _SYMBOL_TEXT.fullmatch(text)
    if match and match[1] in _KINDS:
        rule, arg = _KINDS[match[1]][0], match[2] and _read_int(match[2])
        if (rule is None) == (arg is None) and (arg is None or rule(arg)):
            return (match[1], arg)
    raise ValueError(f"unknown symbol {text!r}")


# the most characters of a decimal integer the document reader takes: a
# numerator or denominator, a JSON integer or a symbol's argument.  int() of a
# decimal text takes time quadratic in its length (about 30 ms at 10^5 digits),
# so no number of a document can hold the reader for long
READ_DIGITS_MAX = 100_000


def _read_int(text: str) -> int:
    """int(text) for a text of at most ``READ_DIGITS_MAX`` characters; a
    longer one is a ValueError that names the bound."""
    if len(text) > READ_DIGITS_MAX:
        raise ValueError(f"a number of {len(text)} characters is past the reader's bound of "
                         f"{READ_DIGITS_MAX} digits")
    return int(text)


def _json_int(value) -> int:
    """A JSON integer as read; any other JSON value is a TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_fraction(value) -> Fraction:
    """A JSON string "p" or "p/q" as a Fraction, each part read by ``_read_int``;
    any other JSON value is a TypeError, any other string a ValueError and
    q = 0 a ZeroDivisionError."""
    if type(value) is not str:
        raise TypeError(f"expected a number string, got {value!r}")
    return Fraction(*map(_read_int, value.split("/", 1)))


class SymbolMonomial(tuple):
    """Product of symbol powers, e.g. pi^-4 * zeta(3)^2 * ln_prime(2).

    Exponents are nonzero integers; pi and zeta exponents may be negative
    (negative zeta powers arise from Eisenstein zeroth coefficients and
    Ramanujan denominators).  The monomial is the tuple of its (symbol,
    exponent) pairs in the fixed canonical order pi < gamma < ln_pi <
    ln_prime(p asc) < zeta(asc) < zeta_prime(asc), so it compares and hashes
    as that tuple; the empty tuple is 1.  JSON and repr order by ``sort_key``.
    """

    __slots__ = ()

    def __new__(cls, exponents: Mapping[Symbol, int] | Iterable[Tuple[Symbol, int]] = ()):
        pairs = ((s, e) for s, e in dict(exponents).items() if e != 0)
        return super().__new__(cls, sorted(pairs, key=lambda kv: _symbol_key(kv[0])))

    def items(self):
        return self

    def is_one(self) -> bool:
        return not self

    def pi_exponent(self) -> int:
        return self[0][1] if self and self[0][0] == SYM_PI else 0

    def __mul__(self, other: "SymbolMonomial") -> "SymbolMonomial":
        if not other:
            return self
        if not self:
            return other
        return _monomial_product(self, other)

    def __pow__(self, k: int) -> "SymbolMonomial":
        return _monomial_power(self, k)

    def __repr__(self) -> str:
        if not self:
            return "1"
        return "*".join(
            _symbol_str(s) + (f"^{e}" if e != 1 else "") for s, e in self
        )

    def sort_key(self):
        return _sort_key(self)


@lru_cache(maxsize=None)
def _monomial_product(a: SymbolMonomial, b: SymbolMonomial) -> SymbolMonomial:
    exps = dict(a)
    for sym, e in b:
        exps[sym] = exps.get(sym, 0) + e
    return SymbolMonomial(exps)


@lru_cache(maxsize=None)
def _monomial_power(mono: SymbolMonomial, k: int) -> SymbolMonomial:
    return SymbolMonomial({s: e * k for s, e in mono})


@lru_cache(maxsize=None)
def _sort_key(mono: SymbolMonomial):
    return tuple((_symbol_key(s), e) for s, e in mono)


@lru_cache(maxsize=None)
def _json_names(mono: SymbolMonomial) -> Tuple[Tuple[str, int], ...]:
    """The (symbol text, exponent) pairs of ``to_json_obj``'s "monomial" object."""
    return tuple((_symbol_str(s), e) for s, e in mono)


_ONE_MONOMIAL = SymbolMonomial()


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class _SparseSum:
    """A finite sum over a ring, held as the dict ``_terms`` from each key to its
    nonzero coefficient: the rules ``Constant`` and ``YLaurent`` share.

    The zero element is the empty dict, and it is the one falsy element.
    """

    __slots__ = ("_terms",)

    @classmethod
    def _trusted(cls, terms: dict):
        """Wrap a dict that is already normal: valid keys, no zero coefficient.

        Operations on normal operands build their results this way; each
        drops the zeros it creates itself.
        """
        obj = object.__new__(cls)
        obj._terms = terms
        return obj

    @classmethod
    def _of_sums(cls, sums: dict):
        """The element of a dict of coefficient sums, such as a product fills,
        without its zero sums."""
        return cls._trusted({key: c for key, c in sums.items() if c})

    @classmethod
    def zero(cls):
        return cls._trusted({})

    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __neg__(self):
        return self._trusted({key: -c for key, c in self._terms.items()})

    def __add__(self, other):
        """The sum with the operand ``_operand`` makes of `other`, or
        NotImplemented where it makes None; a key whose sum is zero is dropped."""
        other = self._operand(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        for key, c in other._terms.items():
            prev = terms.get(key)
            if prev is None:
                terms[key] = c
            else:
                val = prev + c
                if val:
                    terms[key] = val
                else:
                    del terms[key]
        return self._trusted(terms)

    __radd__ = __add__

    def scale(self, factor):
        """Multiply every coefficient by `factor`.  The rings have no zero
        divisors, so a nonzero factor leaves no coefficient zero, and a zero
        one gives the zero element."""
        if not factor:
            return self._trusted({})
        return self._trusted({key: c * factor for key, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        """Equal to an element of the same type with the same terms; any other
        operand is left to ``_equals_other``, a hook rather than an override of
        this method, so that the common same-type test costs one call."""
        if isinstance(other, type(self)):
            return self._terms == other._terms
        return self._equals_other(other)

    def _equals_other(self, other):
        return NotImplemented


class Constant(_SparseSum):
    """Finite rational-linear combination of :class:`SymbolMonomial` terms."""

    __slots__ = ()

    def __init__(self, terms: Mapping[SymbolMonomial, Fraction] | None = None):
        self._terms = {m: q for m, c in (terms or {}).items() if (q := _as_fraction(c))}

    @staticmethod
    def _operand(value) -> "Constant | None":
        """The other operand of a Constant operator: a Constant as it is, a
        number lifted by ``from_rational``, and None for any other value, for
        which the operator returns NotImplemented."""
        if isinstance(value, Constant):
            return value
        return Constant.from_rational(value) if isinstance(value, (int, Fraction)) else None

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "Constant":
        return cls.from_rational(1)

    @classmethod
    def from_rational(cls, value) -> "Constant":
        """The one lift of a number: an int or a Fraction, else a TypeError."""
        q = _as_fraction(value)
        return cls._trusted({_ONE_MONOMIAL: q} if q else {})

    @classmethod
    def monomial(cls, sym: Symbol, exponent: int = 1, coeff=1) -> "Constant":
        return cls._of_sums({SymbolMonomial({sym: exponent}): _as_fraction(coeff)})

    @classmethod
    def pi_power(cls, exponent: int, coeff=1) -> "Constant":
        return cls.monomial(SYM_PI, exponent, coeff)

    # -- inspection --------------------------------------------------------

    def single_term(self) -> Tuple[SymbolMonomial, Fraction]:
        if len(self._terms) != 1:
            raise ValueError(f"not a single-term constant: {self!r}")
        return next(iter(self._terms.items()))

    # -- ring operations ---------------------------------------------------

    def __sub__(self, other) -> "Constant":
        other = self._operand(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other) -> "Constant":
        other = self._operand(other)
        return NotImplemented if other is None else other + (-self)

    def __mul__(self, other) -> "Constant":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Constant):
            return NotImplemented
        if len(other._terms) == 1:
            # Distinct monomials times one monomial stay distinct.
            (m2, c2), = other._terms.items()
            return Constant._trusted({m1 * m2: c1 * c2 for m1, c1 in self._terms.items()})
        out: Dict[SymbolMonomial, Fraction] = {}
        _add_product(out, self, other)
        return Constant._of_sums(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Constant":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / other)
        if not isinstance(other, Constant):
            return NotImplemented
        (mono, coeff), = (other ** -1)._terms.items()
        return Constant._trusted({m * mono: c * coeff for m, c in self._terms.items()})

    def __rtruediv__(self, other) -> "Constant":
        other = self._operand(other)
        return NotImplemented if other is None else other / self

    def __pow__(self, k: int) -> "Constant":
        if k < 0 or (k > 0 and len(self._terms) == 1):
            if not self._terms:
                raise ZeroDivisionError("a zero Constant to a negative power")
            mono, coeff = self.single_term()
            return Constant._trusted({mono ** k: coeff ** k})
        out, base, n = Constant.one(), self, k
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def _equals_other(self, other):
        """Equal to an int or a Fraction q as the terms {1: q} ({} for zero),
        which builds no Constant."""
        if isinstance(other, (int, Fraction)):
            return self._terms == ({_ONE_MONOMIAL: other} if other else {})
        return NotImplemented

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m, c in sorted(self._terms.items(), key=lambda kv: kv[0].sort_key()):
            if m.is_one():
                parts.append(str(c))
            elif c == 1:
                parts.append(repr(m))
            else:
                parts.append(f"{c}*{m!r}")
        return " + ".join(parts)

    # -- evaluation / emission ----------------------------------------------

    def evaluate(self, value_of: Callable[[Symbol], float]) -> float:
        """The fsum of the terms' double products.  A term whose product
        raises OverflowError (its coefficient or a power past a double) is
        the exact product of the same values, rounded once; a value that
        itself leaves double range raises OverflowError."""
        parts = []
        for mono, coeff in self._terms.items():
            try:
                v = float(coeff)
                for sym, e in mono.items():
                    v *= value_of(sym) ** e
            except OverflowError:
                v = float(coeff * math.prod(Fraction(value_of(sym)) ** e for sym, e in mono.items()))
            parts.append(v)
        return math.fsum(parts)

    def latex(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self._terms.items(), key=lambda kv: kv[0].sort_key()):
            body = _monomial_latex(mono)
            piece = _coeff_latex(coeff, body)
            if parts and not piece.startswith("-"):
                parts.append("+" + piece)
            else:
                parts.append(piece)
        return "".join(parts)

    def to_json_obj(self) -> list:
        out = []
        for mono, coeff in sorted(self._terms.items(), key=lambda kv: kv[0].sort_key()):
            out.append(
                {
                    "monomial": dict(_json_names(mono)),
                    "coeff": f"{coeff.numerator}/{coeff.denominator}",
                }
            )
        return out

    @classmethod
    def from_json_obj(cls, obj: list) -> "Constant":
        """Read ``to_json_obj``'s list.  A value of the wrong JSON type is a
        TypeError and an unknown symbol a ValueError.  Any other list is read
        as the sum of its terms, zeros dropped; ``verify`` writes it back and
        refuses a list that is not as ``to_json_obj`` writes it."""
        terms: Dict[SymbolMonomial, Fraction] = {}
        for entry in obj:
            monomial = entry["monomial"]
            if type(monomial) is not dict:
                raise TypeError(f"expected a monomial object: {entry!r}")
            mono = SymbolMonomial({_symbol_from_str(k): _json_int(e) for k, e in monomial.items()})
            terms[mono] = terms.get(mono, 0) + _json_fraction(entry["coeff"])
        return cls(terms)


def _add_product(sums: Dict[SymbolMonomial, Fraction], a: Constant, b: Constant) -> None:
    """Add every monomial product of a * b into `sums`, which may then hold
    zeros; ``Constant._of_sums`` drops them.  A product of many Constants
    summed this way builds no Constant per pair."""
    for m1, c1 in a._terms.items():
        for m2, c2 in b._terms.items():
            m = m1 * m2
            prev = sums.get(m)
            sums[m] = c1 * c2 if prev is None else prev + c1 * c2


def _frac_latex(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    sign = "-" if f < 0 else ""
    return rf"{sign}\frac{{{abs(f.numerator)}}}{{{f.denominator}}}"


def _symbol_latex(sym: Symbol) -> str:
    # a monomial holds only kinds of _KINDS: its sort key refuses any other
    kind, arg = sym
    return _KINDS[kind][1].format(arg)


def _monomial_latex(mono: SymbolMonomial) -> str:
    num, den = [], []
    for sym, e in mono.items():
        base = _symbol_latex(sym)
        tgt = num if e > 0 else den
        k = abs(e)
        tgt.append(base if k == 1 else rf"{base}^{{{k}}}")
    if den:
        return rf"\frac{{{' '.join(num) if num else '1'}}}{{{' '.join(den)}}}"
    return " ".join(num)


def _coeff_latex(coeff: Fraction, body: str) -> str:
    if not body:
        return _frac_latex(coeff)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return _frac_latex(coeff) + r" \, " + body


PI = Constant.pi_power(1)
GAMMA = Constant.monomial(SYM_GAMMA)
LN_PI = Constant.monomial(SYM_LN_PI)


def ln_prime(p: int) -> Constant:
    if not _is_prime(p):
        raise ValueError(f"{p} is not a prime below {_PRIME_BOUND}")
    return Constant.monomial(sym_ln_prime(p))


def zeta_odd(k: int) -> Constant:
    return Constant.monomial(sym_zeta(k))


def zeta_prime(m: int) -> Constant:
    return Constant.monomial(sym_zeta_prime(m))


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention).

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent numbers
    T_1..T_k, built in O(k^2) integer steps by the algorithm of Brent and
    Harvey ("Fast computation of Bernoulli, Tangent and Secant numbers",
    arXiv:1108.0286); the odd B_n past B_1 are 0.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n < 2 or n % 2:  # B_0 = 1, B_1 = -1/2 and every odd B_n past it is 0
        return (Fraction(1), Fraction(-1, 2), Fraction(0))[min(n, 2)]
    k = n // 2
    t = [0, *map(math.factorial, range(k))]  # t[j] = (j - 1)!; pass i fixes t[i] = T_i
    for i in range(2, k + 1):
        for j in range(i, k + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return Fraction((-1) ** (k - 1) * n * t[k], 4**k * (4**k - 1))


def zeta_even(k: int) -> Constant:
    """zeta(k) for even k >= 2, normalized to rational * pi^k."""
    if k < 2 or k % 2 != 0:
        raise ValueError(f"zeta_even requires an even argument >= 2, got {k}")
    m = k // 2
    rat = Fraction((-1) ** (m + 1)) * bernoulli(k) * Fraction(2 ** (k - 1)) / math.factorial(k)
    return Constant.pi_power(k, rat)


def zeta_value(k: int) -> Constant:
    """Exact/symbolic zeta at integer k != 1.

    Even k >= 2 normalize to pi powers, odd k >= 3 stay symbolic,
    nonpositive integers use the Bernoulli continuation values.
    """
    if k == 1:
        raise ValueError("zeta has a pole at 1")
    if k >= 2:
        return zeta_even(k) if k % 2 == 0 else zeta_odd(k)
    if k == 0:
        return Constant.from_rational(Fraction(-1, 2))
    n = 1 - k  # k = 1 - n, n >= 2
    return Constant.from_rational(-bernoulli(n) / n)


def _rho(m: int) -> int:
    """A proper factor of an odd composite m, by Brent's variant of Pollard's
    rho (BIT 20, 1980): y steps on by y^2 + c from 2, x holds y's value at
    the steps 0, 1, 3, 7, ..., 2^i - 1, and each step tests gcd(y - x, m).  A
    cycle that splits nothing (gcd m) retries with the next c."""
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
                if (g := math.gcd(y - x, m)) != 1:
                    break
            r *= 2
        if g != m:
            return g


@lru_cache(maxsize=None)
def factorize(n: int) -> Tuple[Tuple[int, int], ...]:
    """Prime factorization of 1 <= n < ``_PRIME_BOUND``, the bound of the
    prime test; a larger n is a ValueError that names the bound.

    Trial division takes out the primes below 1000.  Each cofactor is then
    prime by ``_is_prime`` or split by ``_rho``, in about sqrt(q) steps for
    its least prime factor q.
    """
    if not 1 <= n < _PRIME_BOUND:
        raise ValueError(f"factorize requires 1 <= n < {_PRIME_BOUND}, got {n}")
    out = Counter()
    m, p = n, 2
    while p * p <= m and p < 1000:
        while m % p == 0:
            m //= p
            out[p] += 1
        p += 1 if p == 2 else 2
    # every factor of what is left is at least p
    todo = [m] if m > 1 else []
    while todo:
        m = todo.pop()
        if p * p > m or _is_prime(m):
            out[m] += 1
        else:
            d = _rho(m)
            todo += (d, m // d)
    return tuple(sorted(out.items()))


def log_normalize(m: int) -> Constant:
    """log(m) expressed over prime logarithms, for m >= 1."""
    if m < 1:
        raise ValueError("log_normalize requires m >= 1")
    return Constant._trusted({SymbolMonomial({sym_ln_prime(p): 1}): Fraction(e) for p, e in factorize(m)})
