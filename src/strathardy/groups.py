"""Stratified nilpotent group structures.

A group is described by its strata dimensions and by the polynomial
coefficient table of its generating vector fields: field k acts as the
partial derivative along horizontal slot k plus, for every higher-stratum
slot j, a polynomial coefficient times the partial along j.  A coefficient
attached to a slot of stratum l may depend only on coordinates of strata
strictly below l; this triangular structure is validated at construction
and is what makes dilations and the explicit group law of the Heisenberg
family consistent.

Coordinates are plain numpy arrays laid out stratum by stratum.  For the
Heisenberg group of index n the layout is ``(x_1..x_n, y_1..y_n, t)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import Refusal
from .polynomials import Polynomial

__all__ = [
    "GroupSpec",
    "heisenberg_group",
    "abelian_group",
    "group_from_table",
    "group_from_name",
    "h_multiply",
    "dilate",
    "apply_field_to_polynomial",
    "commutator_check",
    "left_translation_jacobian",
]


@dataclass(frozen=True)
class GroupSpec:
    """Strata layout plus the coefficient table of the generating fields.

    ``coeffs`` holds, for each horizontal index k (0-based), a sorted tuple
    of ``(slot, polynomial)`` pairs; slots are absolute 0-based coordinate
    indices in strata >= 2.  Field k applied to a function f is
    ``df/dx_k + sum_j coeff[k][j] * df/dx_j``.
    """

    name: str
    strata_dims: tuple[int, ...]
    coeffs: tuple[tuple[tuple[int, Polynomial], ...], ...] = field(default=())
    heisenberg_n: int | None = None

    def __post_init__(self):
        dims = tuple(int(d) for d in self.strata_dims)
        if not dims or any(d <= 0 for d in dims):
            raise ValueError(f"strata dimensions must be positive: {dims}")
        object.__setattr__(self, "strata_dims", dims)
        n = sum(dims)
        nh = dims[0]
        coeffs = self.coeffs
        if coeffs == () and len(dims) == 1:
            coeffs = tuple(() for _ in range(nh))
        if len(coeffs) != nh:
            raise ValueError(
                f"coefficient table has {len(coeffs)} rows, expected {nh} horizontal fields"
            )
        norm_rows = []
        for k, row in enumerate(coeffs):
            seen = set()
            norm = []
            for slot, poly in row:
                slot = int(slot)
                if not nh <= slot < n:
                    raise ValueError(
                        f"field {k}: slot {slot} is not in strata >= 2 (range {nh}..{n - 1})"
                    )
                if slot in seen:
                    raise ValueError(f"field {k}: duplicate slot {slot}")
                seen.add(slot)
                if not isinstance(poly, Polynomial) or poly.nvars != n:
                    raise ValueError(
                        f"field {k}, slot {slot}: coefficient must be a Polynomial in {n} variables"
                    )
                lmax = self._stratum_of(slot, dims)
                for exps in poly.terms:
                    for j, e in enumerate(exps):
                        if e and self._stratum_of(j, dims) >= lmax:
                            raise ValueError(
                                f"field {k}, slot {slot}: coefficient depends on "
                                f"variable {j} of stratum {self._stratum_of(j, dims)}, "
                                f"but only strata below {lmax} are allowed"
                            )
                if not poly.is_zero:
                    norm.append((slot, poly))
            norm_rows.append(tuple(sorted(norm, key=lambda sp: sp[0])))
        object.__setattr__(self, "coeffs", tuple(norm_rows))

    @staticmethod
    def _stratum_of(slot: int, dims: tuple[int, ...]) -> int:
        acc = 0
        for l, d in enumerate(dims, start=1):
            acc += d
            if slot < acc:
                return l
        raise ValueError(f"slot {slot} out of range")

    # -- derived quantities --------------------------------------------------

    @property
    def total_dim(self) -> int:
        return sum(self.strata_dims)

    @property
    def horizontal_dim(self) -> int:
        return self.strata_dims[0]

    @property
    def homogeneous_dim(self) -> int:
        """Sum of l * dim(stratum l); the scaling weight of the volume form."""
        return sum(l * d for l, d in enumerate(self.strata_dims, start=1))

    def stratum_weights(self) -> np.ndarray:
        """Per-coordinate dilation weights (stratum index of each slot)."""
        return np.concatenate(
            [np.full(d, l, dtype=float) for l, d in enumerate(self.strata_dims, start=1)]
        )

    def field_vector(self, k: int) -> list[Polynomial]:
        """Full coefficient vector of field k as polynomials (length total_dim)."""
        if not 0 <= k < self.horizontal_dim:
            raise ValueError(f"horizontal index {k} out of range")
        n = self.total_dim
        vec = [Polynomial.zero(n) for _ in range(n)]
        vec[k] = Polynomial.constant(n, 1.0)
        for slot, poly in self.coeffs[k]:
            vec[slot] = poly
        return vec

    @property
    def is_heisenberg(self) -> bool:
        return self.heisenberg_n is not None


def heisenberg_group(n: int) -> GroupSpec:
    """The Heisenberg group of index n: coordinates (x_1..x_n, y_1..y_n, t).

    Generating fields, with d = 2n + 1 coordinates and t-slot 2n:

        X_i = d/dx_i + 2 y_i d/dt        (k = i - 1)
        Y_i = d/dy_i - 2 x_i d/dt        (k = n + i - 1)
    """
    if n < 1:
        raise Refusal(f"Heisenberg index must be >= 1, got {n!r}")
    dim = 2 * n + 1
    t = 2 * n
    rows = []
    for i in range(n):
        e = [0] * dim
        e[n + i] = 1
        rows.append(((t, Polynomial.monomial(dim, e, 2.0)),))
    for i in range(n):
        e = [0] * dim
        e[i] = 1
        rows.append(((t, Polynomial.monomial(dim, e, -2.0)),))
    return GroupSpec(
        name=f"heisenberg:{n}",
        strata_dims=(2 * n, 1),
        coeffs=tuple(rows),
        heisenberg_n=n,
    )


def abelian_group(n: int) -> GroupSpec:
    """R^n with the trivial (single-stratum) structure; fields are d/dx_i."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return GroupSpec(name=f"abelian:{n}", strata_dims=(n,))


def group_from_table(
    strata_dims,
    table: Mapping[tuple[int, int], Polynomial],
    name: str = "custom",
) -> GroupSpec:
    """Build a GroupSpec from ``{(field_k, slot): polynomial}`` (0-based keys)."""
    dims = tuple(int(d) for d in strata_dims)
    nh = dims[0] if dims else 0
    rows: list[list[tuple[int, Polynomial]]] = [[] for _ in range(nh)]
    for (k, slot), poly in table.items():
        if not 0 <= k < nh:
            raise ValueError(f"field index {k} out of range 0..{nh - 1}")
        rows[k].append((int(slot), poly))
    return GroupSpec(name=name, strata_dims=dims, coeffs=tuple(tuple(r) for r in rows))


def group_from_name(name: str) -> GroupSpec:
    """Parse names of the form ``heisenberg:n`` or ``abelian:n``."""
    parts = name.split(":")
    if len(parts) == 2 and parts[1].isdigit():
        if parts[0] == "heisenberg":
            return heisenberg_group(int(parts[1]))
        if parts[0] == "abelian":
            return abelian_group(int(parts[1]))
    raise ValueError(f"unknown group name {name!r}; expected 'heisenberg:n' or 'abelian:n'")


def _check_heisenberg_points(xi, eta, n):
    dim = 2 * n + 1
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if xi.shape[-1] != dim or eta.shape[-1] != dim:
        raise ValueError(f"points must have {dim} coordinates for index {n}")
    return xi, eta


def h_multiply(xi, eta, n: int) -> np.ndarray:
    """Heisenberg group product; broadcasts over leading axes.

    (x, y, t) o (x', y', t') has the same x and y sums and
    t + t' + 2 sum_i (x'_i y_i - x_i y'_i) in the last slot.
    """
    xi, eta = _check_heisenberg_points(xi, eta, n)
    out = xi + eta
    x, y = xi[..., :n], xi[..., n : 2 * n]
    xp, yp = eta[..., :n], eta[..., n : 2 * n]
    out[..., 2 * n] = (
        xi[..., 2 * n]
        + eta[..., 2 * n]
        + 2.0 * (np.sum(xp * y, axis=-1) - np.sum(x * yp, axis=-1))
    )
    return out


def dilate(spec: GroupSpec, lam: float, xi) -> np.ndarray:
    """Anisotropic dilation: coordinate of stratum l scales by lam**l."""
    lam = float(lam)
    if lam <= 0:
        raise ValueError("dilation parameter must be positive")
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != spec.total_dim:
        raise ValueError(f"point has {xi.shape[-1]} coordinates, expected {spec.total_dim}")
    return xi * lam ** spec.stratum_weights()


def apply_field_to_polynomial(spec: GroupSpec, k: int, g: Polynomial) -> Polynomial:
    """X_k g for a polynomial g, computed exactly in the polynomial ring."""
    if not 0 <= k < spec.horizontal_dim:
        raise ValueError(f"horizontal index {k} out of range")
    if g.nvars != spec.total_dim:
        raise ValueError(f"polynomial has {g.nvars} variables, group has {spec.total_dim}")
    out = g.partial(k)
    for slot, poly in spec.coeffs[k]:
        out = out + poly * g.partial(slot)
    return out


def commutator_check(spec: GroupSpec, i: int, j: int) -> list[Polynomial]:
    """Coefficient vector of the commutator [field_i, field_j], exactly.

    Supported for the Heisenberg family, whose step-2 table makes the
    bracket another coefficient vector of polynomials.  For the Heisenberg
    group [X_i, Y_i] = -4 d/dt and all other generator brackets vanish.
    """
    if not spec.is_heisenberg:
        raise ValueError(
            "commutator_check supports only the Heisenberg family; "
            f"got group {spec.name!r}"
        )
    nh = spec.horizontal_dim
    if not (0 <= i < nh and 0 <= j < nh):
        raise ValueError(f"field indices ({i}, {j}) out of range 0..{nh - 1}")
    return [
        apply_field_to_polynomial(spec, i, bm) - apply_field_to_polynomial(spec, j, am)
        for am, bm in zip(spec.field_vector(i), spec.field_vector(j))
    ]


def left_translation_jacobian(xi, eta, n: int, h: float = 1e-2) -> np.ndarray:
    """Determinants of the Jacobians of eta -> xi o eta, by central differences.

    ``xi`` and ``eta`` are (M, 2n+1) arrays of paired points; returns (M,).
    The product is affine in eta for the Heisenberg family, so central
    differences recover the Jacobian to rounding error for any step; the
    default step is large to keep the rounding term small.  The determinant
    of a measure-preserving translation is 1.
    """
    xi, eta = _check_heisenberg_points(xi, eta, n)
    if xi.ndim != 2 or xi.shape != eta.shape:
        raise ValueError(f"expected two (M, {2 * n + 1}) arrays, got {xi.shape} and {eta.shape}")
    dim = 2 * n + 1
    jac = np.empty((xi.shape[0], dim, dim))
    for j in range(dim):
        step = np.zeros(dim)
        step[j] = h
        jac[:, :, j] = (h_multiply(xi, eta + step, n) - h_multiply(xi, eta - step, n)) / (2 * h)
    return np.linalg.det(jac)
