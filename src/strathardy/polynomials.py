"""Sparse multivariate polynomials over float coefficients.

The vector-field coefficient tables of the groups in this package are
small-integer polynomials in the group coordinates, so ring operations and
derivatives must cancel exactly.  Canonical form therefore drops a term only
when its coefficient is exactly zero; no magnitude threshold is ever applied,
because thresholding could silently turn a failed identity into a passing
one.  Callers who feed irrational coefficients simply get ordinary float
accuracy instead of exact cancellation.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

import numpy as np

__all__ = ["Polynomial", "parse_polynomial"]


class Polynomial:
    """A sparse polynomial in ``nvars`` real variables.

    Terms map exponent tuples to coefficients: with ``nvars=3`` the
    polynomial ``2*x1*x2 - x3`` is ``{(1, 1, 0): 2.0, (0, 0, 1): -1.0}``.
    Instances are immutable and canonical (zero coefficients are never
    stored), so ``==`` decides mathematical equality and instances can be
    used as dict keys.
    """

    __slots__ = ("_nvars", "_terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[tuple, float] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean: dict[tuple, float] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} has length != {nvars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = float(coeff)
            if not np.isfinite(coeff):
                raise ValueError("coefficients must be finite")
            if coeff != 0.0:
                clean[exps] = clean.get(exps, 0.0) + coeff
        clean = {e: c for e, c in clean.items() if c != 0.0}
        object.__setattr__(self, "_nvars", int(nvars))
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: float) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        """The coordinate polynomial for variable ``index`` (0-based)."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: 1.0})

    @classmethod
    def monomial(cls, nvars: int, exps: Iterable[int], coeff: float) -> "Polynomial":
        return cls(nvars, {tuple(exps): coeff})

    # -- basic queries -----------------------------------------------------

    @property
    def nvars(self) -> int:
        return self._nvars

    @property
    def terms(self) -> dict[tuple, float]:
        """A copy of the term map (exponent tuple -> coefficient)."""
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._nvars == other._nvars and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash((self._nvars, frozenset(self._terms.items())))
            )
        return self._hash

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self._nvars != other._nvars:
            raise ValueError(
                f"operands have different nvars: {self._nvars} vs {other._nvars}"
            )

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self._nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            out[exps] = out.get(exps, 0.0) + coeff
        return Polynomial(self._nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self._nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self._nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out: dict[tuple, float] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0.0) + c1 * c2
        return Polynomial(self._nvars, out)

    __rmul__ = __mul__

    def scale(self, factor: float) -> "Polynomial":
        factor = float(factor)
        return Polynomial(
            self._nvars, {e: factor * c for e, c in self._terms.items()}
        )

    def partial(self, index: int) -> "Polynomial":
        """Partial derivative with respect to variable ``index`` (0-based)."""
        if not 0 <= index < self._nvars:
            raise ValueError(f"variable index {index} out of range")
        out: dict[tuple, float] = {}
        for exps, coeff in self._terms.items():
            e = exps[index]
            if e == 0:
                continue
            key = exps[:index] + (e - 1,) + exps[index + 1 :]
            out[key] = out.get(key, 0.0) + coeff * e
        return Polynomial(self._nvars, out)

    # -- evaluation --------------------------------------------------------

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an ``(M, nvars)`` array of points, returning ``(M,)``."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self._nvars:
            raise ValueError(f"expected (M, {self._nvars}) array, got {points.shape}")
        out = np.zeros(points.shape[0])
        for exps, coeff in self._terms.items():
            term = np.full(points.shape[0], coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * points[:, i] ** e
            out += term
        return out

    # -- textual form ------------------------------------------------------

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Polynomial({self._nvars}, {self._terms!r})"

    def to_string(self) -> str:
        """Render as ``c*x1^e1*x2^e2 + ...`` with 1-based variable names.

        Coefficients use shortest round-trip float formatting, so
        ``parse_polynomial(p.to_string(), p.nvars) == p`` exactly.
        """
        if not self._terms:
            return "0"
        parts = []
        for exps in sorted(self._terms, key=lambda e: (-sum(e), tuple(-v for v in e))):
            coeff = self._terms[exps]
            factors = [repr(abs(coeff))]
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            parts.append((coeff < 0, "*".join(factors)))
        first_neg, first = parts[0]
        pieces = [("-" if first_neg else "") + first]
        for neg, body in parts[1:]:
            pieces.append(("- " if neg else "+ ") + body)
        return " ".join(pieces)


_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x\d+)"
    r"|(?P<op>[*^+-])"
    r")"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValueError(f"cannot parse polynomial at: {rest!r}")
        pos = m.end()
        for kind in ("number", "var", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val))
                break
    return tokens


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse the textual form produced by :meth:`Polynomial.to_string`.

    Accepts sums of terms like ``3.5*x1^2*x3 - 2*x2 + 1``; a bare variable
    (``x2`` or ``-x2^3``) is read with coefficient 1.  Variable indices are
    1-based and must not exceed ``nvars``.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial text")
    terms: dict[tuple, float] = {}
    i = 0
    n = len(tokens)

    def parse_factor(idx):
        if idx >= n:
            raise ValueError("unexpected end of polynomial text")
        kind, val = tokens[idx]
        if kind == "number":
            return float(val), None, idx + 1
        if kind == "var":
            var = int(val[1:]) - 1
            if not 0 <= var < nvars:
                raise ValueError(f"variable {val} out of range for nvars={nvars}")
            exp = 1
            if idx + 1 < n and tokens[idx + 1] == ("op", "^"):
                if idx + 2 >= n or tokens[idx + 2][0] != "number":
                    raise ValueError("expected integer exponent after '^'")
                exp_text = tokens[idx + 2][1]
                if not exp_text.isdigit():
                    raise ValueError(f"exponent must be a nonnegative integer: {exp_text}")
                exp = int(exp_text)
                idx += 2
            return None, (var, exp), idx + 1
        raise ValueError(f"unexpected token {val!r} in term")

    first = True
    while i < n:
        sign = 1.0
        signs = 0
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            signs += 1
            i += 1
        if i >= n:
            raise ValueError("dangling sign at end of polynomial text")
        if not first and signs == 0:
            raise ValueError("expected '+' or '-' between terms")
        first = False
        coeff = sign
        exps = [0] * nvars
        while True:
            c, ve, i = parse_factor(i)
            if c is not None:
                coeff *= c
            else:
                var, exp = ve
                exps[var] += exp
            if i < n and tokens[i] == ("op", "*"):
                i += 1
                continue
            break
        key = tuple(exps)
        terms[key] = terms.get(key, 0.0) + coeff
    return Polynomial(nvars, terms)
