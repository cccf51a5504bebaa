"""Laurent polynomials in y with bounded log(y) powers and Constant coefficients.

``YLaurent`` combines with a scalar (an int, a Fraction or a Constant) by
its own operators, on either side: a sum or difference lifts the scalar to a
constant polynomial (``YLaurent.lift``), a product scales by it, and a
quotient by it scales by its inverse.  A polynomial is raised to an integer
power only as a one-term monomial c y^k log^j, log-free for a negative
power: (c y^k log^j)^b is c^b y^(kb) log^(jb).  A quotient by a polynomial
is the product with its power -1.  Any other base is a ``NotAMonomial``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, Mapping, Tuple

from .scalars import Constant, Symbol, _add_product, _json_int

__all__ = ["YLaurent", "LogCapExceeded", "NotAMonomial", "LOG_CAP"]

LOG_CAP = 2  # highest log(y) power any expression may carry

TermKey = Tuple[int, int]  # (y_exponent, log_exponent)


class LogCapExceeded(ValueError):
    """A log(y) power exceeded LOG_CAP."""


class NotAMonomial(ValueError):
    """A division by, or a power of, a polynomial that is not one term
    c y^k log^j, or a division by one with log terms."""


class YLaurent:
    """Sparse map (y_exponent, log_exponent) -> Constant.

    Immutable by convention: all operations return new objects.  No zero
    coefficient is stored, so a == b exactly when (a - b).is_zero().
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[TermKey, Constant] | Iterable[Tuple[TermKey, Constant]] = ()):
        cleaned: Dict[TermKey, Constant] = {}
        for (k, j), c in dict(terms).items():
            if j < 0:
                raise ValueError("negative log exponent")
            if j > LOG_CAP:
                raise LogCapExceeded(f"log(y)^{j} exceeds cap {LOG_CAP}")
            c = c if isinstance(c, Constant) else Constant.from_rational(c)
            if not c.is_zero():
                cleaned[(k, j)] = c
        self._terms = cleaned

    @classmethod
    def _trusted(cls, terms: Dict[TermKey, Constant]) -> "YLaurent":
        """Wrap a dict that is already normal: keys within the log cap, no zero
        coefficient.  Operations on normal operands build their results this
        way; each drops the zeros it creates itself."""
        obj = object.__new__(cls)
        obj._terms = terms
        return obj

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "YLaurent":
        return cls._trusted({})

    @classmethod
    def monomial(cls, y_exp: int, coeff=1, log_exp: int = 0) -> "YLaurent":
        return cls({(y_exp, log_exp): coeff})

    @classmethod
    def one(cls) -> "YLaurent":
        return cls.monomial(0, 1)

    @classmethod
    def lift(cls, value) -> "YLaurent":
        """A polynomial as it is, or a scalar (an int, a Fraction or a Constant)
        as a constant one; any other value is a TypeError."""
        return value if isinstance(value, YLaurent) else cls({(0, 0): value})

    # -- inspection ----------------------------------------------------------

    def terms(self) -> Dict[TermKey, Constant]:
        return dict(self._terms)

    def items_sorted(self):
        return sorted(self._terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))

    def is_zero(self) -> bool:
        return not self._terms

    def min_degree(self) -> int:
        return min(self._terms)[0] if self._terms else 0

    def max_degree(self) -> int:
        return max(self._terms)[0] if self._terms else 0

    def max_log(self) -> int:
        return max((j for _, j in self._terms), default=0)

    def coeff(self, y_exp: int, log_exp: int = 0) -> Constant:
        return self._terms.get((y_exp, log_exp), Constant.zero())

    def support(self) -> Tuple[int, ...]:
        return tuple(sorted({k for k, _ in self._terms}))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "YLaurent":
        terms = dict(self._terms)
        for key, c in YLaurent.lift(other)._terms.items():
            prev = terms.get(key)
            if prev is None:
                terms[key] = c
            else:
                val = prev + c
                if val.is_zero():
                    del terms[key]
                else:
                    terms[key] = val
        return YLaurent._trusted(terms)

    __radd__ = __add__

    def __neg__(self) -> "YLaurent":
        return YLaurent._trusted({k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "YLaurent":
        return self + (-other)

    def __rsub__(self, other) -> "YLaurent":
        return -self + other

    def scale(self, factor) -> "YLaurent":
        """Multiply by an int, Fraction or Constant; the constants form an
        integral domain, so a nonzero factor leaves no coefficient zero."""
        if factor == 0:
            return YLaurent._trusted({})
        return YLaurent._trusted({k: c * factor for k, c in self._terms.items()})

    def shift(self, y_exp: int) -> "YLaurent":
        """Multiply by y**y_exp."""
        return YLaurent._trusted({(k + y_exp, j): c for (k, j), c in self._terms.items()})

    def __mul__(self, other) -> "YLaurent":
        if isinstance(other, YLaurent):
            return self.mul_truncated(other, order=None)
        return self.scale(other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "YLaurent":
        if isinstance(other, YLaurent):
            return self * other ** -1
        return self.scale(Fraction(1) / other)

    def __rtruediv__(self, other) -> "YLaurent":
        return self ** -1 * other

    def __pow__(self, b: int) -> "YLaurent":
        """self**b for a one-term self = c y^k log^j, log-free if b < 0:
        c^b y^(kb) log^(jb).  A negative power is a division, and its errors
        say so; the zero polynomial to a negative power is a
        ZeroDivisionError."""
        if not self._terms and b < 0:
            raise ZeroDivisionError("division by a zero polynomial")
        if len(self._terms) != 1:
            what = "division by" if b < 0 else "power of"
            raise NotAMonomial(f"{what} a non-monomial Laurent polynomial")
        ((k, j), c), = self._terms.items()
        if j and b < 0:
            raise NotAMonomial("division by log terms")
        return YLaurent.monomial(k * b, c ** b, log_exp=j * b)

    def mul_truncated(self, other: "YLaurent", order: int | None) -> "YLaurent":
        """Product, optionally dropping terms with y exponent >= order.

        The monomial products of all the pairs that land on one (k, j) are
        summed into one dict, and one Constant is built per key."""
        out: Dict[TermKey, dict] = {}
        for (k1, j1), c1 in self._terms.items():
            for (k2, j2), c2 in other._terms.items():
                k = k1 + k2
                if order is not None and k >= order:
                    continue
                j = j1 + j2
                if j > LOG_CAP:
                    raise LogCapExceeded(f"log(y)^{j} exceeds cap {LOG_CAP}")
                sums = out.get((k, j))
                if sums is None:
                    sums = out[k, j] = {}
                _add_product(sums, c1, c2)
        products = ((key, Constant._of_sums(sums)) for key, sums in out.items())
        return YLaurent._trusted({key: c for key, c in products if not c.is_zero()})

    def diff(self) -> "YLaurent":
        """d/dy, with d/dy[y^k log^j y] = k y^(k-1) log^j + j y^(k-1) log^(j-1)."""
        out: Dict[TermKey, Constant] = {}
        for (k, j), c in self._terms.items():
            if k:
                key = (k - 1, j)
                add = c * k
                prev = out.get(key)
                val = add if prev is None else prev + add
                if val.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = val
            if j:
                key = (k - 1, j - 1)
                add = c * j
                prev = out.get(key)
                val = add if prev is None else prev + add
                if val.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = val
        return YLaurent._trusted(out)

    def truncate(self, order: int) -> "YLaurent":
        """Keep only terms with y exponent < order."""
        return YLaurent._trusted({k: c for k, c in self._terms.items() if k[0] < order})

    def __eq__(self, other) -> bool:
        return isinstance(other, YLaurent) and self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for (k, j), c in self.items_sorted():
            s = f"({c!r})"
            if k:
                s += f"*y^{k}"
            if j:
                s += f"*log(y)^{j}" if j > 1 else "*log(y)"
            bits.append(s)
        return " + ".join(bits)

    # -- evaluation / emission ------------------------------------------------

    def evaluate(self, value_of: Callable[[Symbol], float], y: float) -> float:
        ln_y = math.log(y)
        return math.fsum(
            c.evaluate(value_of) * y**k * ln_y**j for (k, j), c in self._terms.items()
        )

    def latex(self, var: str = "y") -> str:
        if not self._terms:
            return "0"
        bits = []
        for (k, j), c in sorted(self._terms.items(), key=lambda kv: (-kv[0][0], kv[0][1])):
            body = ""
            if k:
                body = var if k == 1 else f"{var}^{{{k}}}"
            if j:
                body += rf"\log({var})" if j == 1 else rf"\log^{{{j}}}({var})"
            coeff = c.latex()
            piece = rf"\left({coeff}\right) {body}" if body else coeff
            bits.append(piece)
        return " + ".join(bits)

    def to_json_obj(self) -> list:
        return [
            {"y": k, "log": j, "coeff": c.to_json_obj()}
            for (k, j), c in self.items_sorted()
        ]

    @classmethod
    def from_json_obj(cls, obj: list) -> "YLaurent":
        """Read ``to_json_obj``'s list of {"y", "log", "coeff"} terms.  A value
        of the wrong JSON type is a TypeError and a log power over LOG_CAP a
        LogCapExceeded.  Any other list is read as the sum of its terms, zeros
        dropped; ``verify`` writes it back and refuses a list that is not as
        ``to_json_obj`` writes it."""
        terms: Dict[TermKey, Constant] = {}
        for entry in obj:
            key = (_json_int(entry["y"]), _json_int(entry["log"]))
            terms[key] = terms.get(key, 0) + Constant.from_json_obj(entry["coeff"])
        return cls(terms)
