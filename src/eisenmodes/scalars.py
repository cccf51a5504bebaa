"""Exact scalar arithmetic for the symbolic constants of the mode solver.

Every closed-form coefficient produced by this package lives in the ring of
finite rational combinations of monomials over the symbol set

    pi, gamma (Euler-Mascheroni), log(pi), log(p) for primes p,
    zeta(odd k >= 3), zeta'(m).

``Constant`` is that ring.  The exact linear solves of the mode solver need
no larger field: the mode operators are graded by the power of pi, so their
systems are solved over the plain rationals and each solved value maps
back to a rational times a monomial of this ring.

Constructors validate and normalise their input; ring operations on normal
operands build their results without a second pass (``Constant._trusted``).
"""

from __future__ import annotations

import math
import re
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

_KIND_ORDER = {"pi": 0, "gamma": 1, "ln_pi": 2, "ln_prime": 3, "zeta": 4, "zeta_prime": 5}

SYM_PI: Symbol = ("pi", None)
SYM_GAMMA: Symbol = ("gamma", None)
SYM_LN_PI: Symbol = ("ln_pi", None)


def sym_ln_prime(p: int) -> Symbol:
    return ("ln_prime", p)


def sym_zeta(k: int) -> Symbol:
    if k < 3 or k % 2 == 0:
        raise ValueError(f"symbolic zeta is reserved for odd arguments >= 3, got {k}")
    return ("zeta", k)


def sym_zeta_prime(m: int) -> Symbol:
    return ("zeta_prime", m)


def _symbol_key(sym: Symbol):
    kind, arg = sym
    return (_KIND_ORDER[kind], arg if arg is not None else -1)


def _symbol_str(sym: Symbol) -> str:
    kind, arg = sym
    return kind if arg is None else f"{kind}({arg})"


_SYMBOL_TEXT = re.compile(r"(pi|gamma|ln_pi)|(ln_prime|zeta|zeta_prime)\((-?[0-9]+)\)")


def _symbol_from_str(text: str) -> Symbol:
    """The symbol _symbol_str writes as text; any other text is a ValueError."""
    match = _SYMBOL_TEXT.fullmatch(text)
    if match is None:
        raise ValueError(f"unknown symbol {text!r}")
    return (match[1], None) if match[1] else (match[2], int(match[3]))


def _json_int(value) -> int:
    """A JSON integer as read; any other JSON value is a TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


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
        exps = dict(self)
        for sym, e in other:
            exps[sym] = exps.get(sym, 0) + e
        return SymbolMonomial(exps)

    def __pow__(self, k: int) -> "SymbolMonomial":
        return SymbolMonomial({s: e * k for s, e in self})

    def inverse(self) -> "SymbolMonomial":
        return self ** -1

    def __repr__(self) -> str:
        if not self:
            return "1"
        return "*".join(
            _symbol_str(s) + (f"^{e}" if e != 1 else "") for s, e in self
        )

    def sort_key(self):
        return tuple((_symbol_key(s), e) for s, e in self)


_ONE_MONOMIAL = SymbolMonomial()


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class Constant:
    """Finite rational-linear combination of :class:`SymbolMonomial` terms."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[SymbolMonomial, Fraction] | None = None):
        coeffs = {m: _as_fraction(c) for m, c in terms.items()} if terms else {}
        self._terms = {m: c for m, c in coeffs.items() if c}

    @classmethod
    def _trusted(cls, terms: Dict[SymbolMonomial, Fraction]) -> "Constant":
        """Wrap a dict that is already normal: Fraction coefficients, none zero.

        Ring operations on normal operands build their results this way; each
        drops the zeros it creates itself.
        """
        obj = object.__new__(cls)
        obj._terms = terms
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Constant":
        return cls._trusted({})

    @classmethod
    def one(cls) -> "Constant":
        return cls.from_rational(1)

    @classmethod
    def from_rational(cls, value) -> "Constant":
        return cls({_ONE_MONOMIAL: _as_fraction(value)})

    @classmethod
    def monomial(cls, sym: Symbol, exponent: int = 1, coeff=1) -> "Constant":
        return cls({SymbolMonomial({sym: exponent}): _as_fraction(coeff)})

    @classmethod
    def pi_power(cls, exponent: int, coeff=1) -> "Constant":
        return cls.monomial(SYM_PI, exponent, coeff)

    # -- inspection --------------------------------------------------------

    def terms(self) -> Dict[SymbolMonomial, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, mono: SymbolMonomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    def single_term(self) -> Tuple[SymbolMonomial, Fraction]:
        if len(self._terms) != 1:
            raise ValueError(f"not a single-term constant: {self!r}")
        return next(iter(self._terms.items()))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Constant":
        terms = dict(self._terms)
        for m, c in _coerce_constant(other)._terms.items():
            prev = terms.get(m)
            if prev is None:
                terms[m] = c
            else:
                val = prev + c
                if val:
                    terms[m] = val
                else:
                    del terms[m]
        return Constant._trusted(terms)

    __radd__ = __add__

    def __neg__(self) -> "Constant":
        return Constant._trusted({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Constant":
        return self + (-_coerce_constant(other))

    def __rsub__(self, other) -> "Constant":
        return _coerce_constant(other) + (-self)

    def __mul__(self, other) -> "Constant":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Constant._trusted({})
            return Constant._trusted({m: c * other for m, c in self._terms.items()})
        other = _coerce_constant(other)
        if len(other._terms) == 1:
            # Distinct monomials times one monomial stay distinct.
            (m2, c2), = other._terms.items()
            return Constant._trusted({m1 * m2: c1 * c2 for m1, c1 in self._terms.items()})
        out: Dict[SymbolMonomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1 * m2
                prev = out.get(m)
                out[m] = c1 * c2 if prev is None else prev + c1 * c2
        return Constant._trusted({m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Constant":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / other)
        mono, coeff = _coerce_constant(other).single_term()
        inv_mono = mono.inverse()
        return Constant._trusted({m * inv_mono: c / coeff for m, c in self._terms.items()})

    def __rtruediv__(self, other) -> "Constant":
        return _coerce_constant(other) / self

    def __pow__(self, k: int) -> "Constant":
        if k < 0:
            mono, coeff = self.single_term()
            return Constant._trusted({mono ** k: coeff ** k})
        out = Constant.one()
        base = self
        n = k
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        try:
            other = _coerce_constant(other)
        except TypeError:
            return NotImplemented
        return self._terms == other._terms

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
        parts = []
        for mono, coeff in self._terms.items():
            v = float(coeff)
            for sym, e in mono.items():
                v *= value_of(sym) ** e
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
                    "monomial": {_symbol_str(s): e for s, e in mono.items()},
                    "coeff": f"{coeff.numerator}/{coeff.denominator}",
                }
            )
        return out

    @classmethod
    def from_json_obj(cls, obj: list) -> "Constant":
        """Read ``to_json_obj``'s list.  A value of the wrong JSON type is a
        TypeError; an unknown symbol or a coefficient that is not "p/q" with
        q != 0 is a ValueError."""
        terms: Dict[SymbolMonomial, Fraction] = {}
        for entry in obj:
            monomial, coeff = entry["monomial"], entry["coeff"]
            if type(monomial) is not dict or type(coeff) is not str:
                raise TypeError(f"expected a monomial object and a coefficient string: {entry!r}")
            mono = SymbolMonomial({_symbol_from_str(k): _json_int(e) for k, e in monomial.items()})
            num, den = coeff.split("/")
            if int(den) == 0:
                raise ValueError(f"zero denominator in coefficient {coeff!r}")
            terms[mono] = terms.get(mono, Fraction(0)) + Fraction(int(num), int(den))
        return cls(terms)


def _coerce_constant(value) -> Constant:
    if isinstance(value, Constant):
        return value
    if isinstance(value, (int, Fraction)):
        return Constant.from_rational(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Constant")


def _frac_latex(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    sign = "-" if f < 0 else ""
    return rf"{sign}\frac{{{abs(f.numerator)}}}{{{f.denominator}}}"


def _symbol_latex(sym: Symbol) -> str:
    kind, arg = sym
    if kind == "pi":
        return r"\pi"
    if kind == "gamma":
        return r"\gamma"
    if kind == "ln_pi":
        return r"\log \pi"
    if kind == "ln_prime":
        return rf"\log {arg}"
    if kind == "zeta":
        return rf"\zeta({arg})"
    if kind == "zeta_prime":
        return rf"\zeta'({arg})"
    raise ValueError(f"unknown symbol kind {kind}")


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
    if p < 2 or any(p % q == 0 for q in range(2, int(math.isqrt(p)) + 1)):
        raise ValueError(f"{p} is not prime")
    return Constant.monomial(sym_ln_prime(p))


def zeta_odd(k: int) -> Constant:
    return Constant.monomial(sym_zeta(k))


def zeta_prime(m: int) -> Constant:
    return Constant.monomial(sym_zeta_prime(m))


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return Fraction(1)
    # sum_{k=0}^{n} C(n+1, k) B_k = 0
    total = Fraction(0)
    for k in range(n):
        total += math.comb(n + 1, k) * bernoulli(k)
    return -total / (n + 1)


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


@lru_cache(maxsize=None)
def factorize(n: int) -> Tuple[Tuple[int, int], ...]:
    """Prime factorization of n >= 1 by trial division."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def log_normalize(m: int) -> Constant:
    """log(m) expressed over prime logarithms, for m >= 1."""
    if m < 1:
        raise ValueError("log_normalize requires m >= 1")
    out = Constant.zero()
    for p, e in factorize(m):
        out = out + Constant.monomial(sym_ln_prime(p), coeff=e)
    return out
