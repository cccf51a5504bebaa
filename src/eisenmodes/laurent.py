"""Laurent polynomials in y with bounded log(y) powers and Constant coefficients."""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Mapping, Tuple

from .scalars import Constant, Symbol, _json_int

__all__ = ["YLaurent", "LogCapExceeded", "LOG_CAP"]

LOG_CAP = 2  # highest log(y) power any expression may carry

TermKey = Tuple[int, int]  # (y_exponent, log_exponent)


class LogCapExceeded(ValueError):
    """A log(y) power exceeded LOG_CAP."""


def _coerce(c) -> Constant:
    if isinstance(c, Constant):
        return c
    return Constant.from_rational(c)


class YLaurent:
    """Sparse map (y_exponent, log_exponent) -> Constant.

    Immutable by convention: all operations return new objects.
    """

    __slots__ = ("_terms", "_min_y", "_max_y")

    def __init__(self, terms: Mapping[TermKey, Constant] | Iterable[Tuple[TermKey, Constant]] = ()):
        cleaned: Dict[TermKey, Constant] = {}
        for (k, j), c in dict(terms).items():
            if j < 0:
                raise ValueError("negative log exponent")
            if j > LOG_CAP:
                raise LogCapExceeded(f"log(y)^{j} exceeds cap {LOG_CAP}")
            c = _coerce(c)
            if not c.is_zero():
                prev = cleaned.get((k, j))
                c = c if prev is None else prev + c
                if c.is_zero():
                    cleaned.pop((k, j), None)
                else:
                    cleaned[(k, j)] = c
        self._terms = cleaned
        ys = [k for k, _ in cleaned]
        self._min_y = min(ys) if ys else 0
        self._max_y = max(ys) if ys else 0

    @classmethod
    def _trusted(cls, terms: Dict[TermKey, Constant]) -> "YLaurent":
        """Wrap a dict that is already normal: keys within the log cap, no zero
        coefficient.  Operations on normal operands build their results this
        way; each drops the zeros it creates itself."""
        obj = object.__new__(cls)
        obj._terms = terms
        obj._min_y = min(terms)[0] if terms else 0
        obj._max_y = max(terms)[0] if terms else 0
        return obj

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "YLaurent":
        return cls._trusted({})

    @classmethod
    def monomial(cls, y_exp: int, coeff=1, log_exp: int = 0) -> "YLaurent":
        return cls({(y_exp, log_exp): _coerce(coeff)})

    @classmethod
    def one(cls) -> "YLaurent":
        return cls.monomial(0, 1)

    # -- inspection ----------------------------------------------------------

    def terms(self) -> Dict[TermKey, Constant]:
        return dict(self._terms)

    def items_sorted(self):
        return sorted(self._terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))

    def is_zero(self) -> bool:
        return not self._terms

    def min_degree(self) -> int:
        return self._min_y

    def max_degree(self) -> int:
        return self._max_y

    def max_log(self) -> int:
        return max((j for _, j in self._terms), default=0)

    def has_logs(self) -> bool:
        return any(j > 0 for _, j in self._terms)

    def coeff(self, y_exp: int, log_exp: int = 0) -> Constant:
        return self._terms.get((y_exp, log_exp), Constant.zero())

    def support(self) -> Tuple[int, ...]:
        return tuple(sorted({k for k, _ in self._terms}))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "YLaurent") -> "YLaurent":
        terms = dict(self._terms)
        for key, c in other._terms.items():
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

    def __neg__(self) -> "YLaurent":
        return YLaurent._trusted({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "YLaurent") -> "YLaurent":
        return self + (-other)

    def scale(self, factor) -> "YLaurent":
        """Multiply by an int, Fraction or Constant; the constants form an
        integral domain, so a nonzero factor leaves no coefficient zero."""
        if factor == 0:
            return YLaurent._trusted({})
        return YLaurent._trusted({k: c * factor for k, c in self._terms.items()})

    def shift(self, y_exp: int) -> "YLaurent":
        """Multiply by y**y_exp."""
        return YLaurent._trusted({(k + y_exp, j): c for (k, j), c in self._terms.items()})

    def __mul__(self, other: "YLaurent") -> "YLaurent":
        return self.mul_truncated(other, order=None)

    def mul_truncated(self, other: "YLaurent", order: int | None) -> "YLaurent":
        """Product, optionally dropping terms with y exponent >= order."""
        out: Dict[TermKey, Constant] = {}
        for (k1, j1), c1 in self._terms.items():
            for (k2, j2), c2 in other._terms.items():
                k = k1 + k2
                if order is not None and k >= order:
                    continue
                j = j1 + j2
                if j > LOG_CAP:
                    raise LogCapExceeded(f"log(y)^{j} exceeds cap {LOG_CAP}")
                key = (k, j)
                prod = c1 * c2
                prev = out.get(key)
                out[key] = prod if prev is None else prev + prod
        return YLaurent._trusted({key: c for key, c in out.items() if not c.is_zero()})

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
        return cls({(_json_int(e["y"]), _json_int(e["log"])): Constant.from_json_obj(e["coeff"])
                    for e in obj})
