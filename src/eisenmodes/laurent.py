"""Laurent polynomials in y with bounded log(y) powers and Constant coefficients.

``YLaurent`` is a ``scalars._SparseSum`` keyed by (y power, log power): its
trusted build, zero rule, negation, cancelling sum, scaling and equality are
the ones ``Constant`` has, so a zero polynomial is falsy.  It combines with a
scalar (an int, a Fraction or a Constant) by its own operators, on either
side: a sum or difference lifts the scalar to a constant polynomial
(``YLaurent.lift``), a product scales by it, and a quotient by it scales by
its inverse.  The product of two polynomials is the whole product, one
Constant built per (y power, log power); ``truncate`` cuts a polynomial
at a y power.  A polynomial is raised to an integer power only as a one-term
monomial c y^k log^j, log-free for a negative power: (c y^k log^j)^b is
c^b y^(kb) log^(jb).  A quotient by a polynomial is the product with its
power -1.  Any other base is a ``NotAMonomial``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, Mapping, Tuple

from .scalars import Constant, Symbol, _add_product, _json_int, _SparseSum

__all__ = ["YLaurent", "LogCapExceeded", "NotAMonomial", "LOG_CAP"]

LOG_CAP = 2  # highest log(y) power any expression may carry

TermKey = Tuple[int, int]  # (y_exponent, log_exponent)


class LogCapExceeded(ValueError):
    """A log(y) power exceeded LOG_CAP."""


class NotAMonomial(ValueError):
    """A division by, or a power of, a polynomial that is not one term
    c y^k log^j, or a division by one with log terms."""


class YLaurent(_SparseSum):
    """Sparse map (y_exponent, log_exponent) -> Constant.

    Immutable by convention: all operations return new objects.  No zero
    coefficient is stored, so a == b exactly when (a - b).is_zero().
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[TermKey, Constant] | Iterable[Tuple[TermKey, Constant]] = ()):
        cleaned: Dict[TermKey, Constant] = {}
        for (k, j), c in dict(terms).items():
            if j < 0:
                raise ValueError("negative log exponent")
            if j > LOG_CAP:
                raise LogCapExceeded(f"log(y)^{j} exceeds cap {LOG_CAP}")
            cleaned[k, j] = c if isinstance(c, Constant) else Constant.from_rational(c)
        self._terms = {key: c for key, c in cleaned.items() if c}

    # -- constructors -------------------------------------------------------

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

    _operand = lift

    # -- inspection ----------------------------------------------------------

    def items_sorted(self):
        return sorted(self._terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))

    def max_log(self) -> int:
        return max((j for _, j in self._terms), default=0)

    def coeff(self, y_exp: int, log_exp: int = 0) -> Constant:
        return self._terms.get((y_exp, log_exp), Constant.zero())

    def support(self) -> Tuple[int, ...]:
        return tuple(sorted({k for k, _ in self._terms}))

    # -- arithmetic ----------------------------------------------------------

    def __sub__(self, other) -> "YLaurent":
        return self + (-other)

    def __rsub__(self, other) -> "YLaurent":
        return -self + other

    def __mul__(self, other) -> "YLaurent":
        """The product with a polynomial, or with a scalar (``scale``).

        The monomial products of all the pairs that land on one (k, j) are
        summed into one dict, and one Constant is built per key."""
        if not isinstance(other, YLaurent):
            return self.scale(other)
        out: Dict[TermKey, dict] = {}
        for (k1, j1), c1 in self._terms.items():
            for (k2, j2), c2 in other._terms.items():
                j = j1 + j2
                if j > LOG_CAP:
                    raise LogCapExceeded(f"log(y)^{j} exceeds cap {LOG_CAP}")
                sums = out.get((k1 + k2, j))
                if sums is None:
                    sums = out[k1 + k2, j] = {}
                _add_product(sums, c1, c2)
        return YLaurent._of_sums({key: Constant._of_sums(sums) for key, sums in out.items()})

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

    def diff(self) -> "YLaurent":
        """d/dy, with d/dy[y^k log^j y] = k y^(k-1) log^j + j y^(k-1) log^(j-1)."""
        out: Dict[TermKey, Constant] = {}
        for (k, j), c in self._terms.items():
            for key, factor in (((k - 1, j), k), ((k - 1, j - 1), j)):
                if factor:
                    prev = out.get(key)
                    out[key] = c * factor if prev is None else prev + c * factor
        return YLaurent._of_sums(out)

    def truncate(self, order: int) -> "YLaurent":
        """Keep only terms with y exponent < order."""
        return YLaurent._trusted({k: c for k, c in self._terms.items() if k[0] < order})

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

    def latex(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for (k, j), c in sorted(self._terms.items(), key=lambda kv: (-kv[0][0], kv[0][1])):
            body = ""
            if k:
                body = "y" if k == 1 else f"y^{{{k}}}"
            if j:
                body += r"\log(y)" if j == 1 else rf"\log^{{{j}}}(y)"
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
