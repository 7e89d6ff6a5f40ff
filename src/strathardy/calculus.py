"""Horizontal calculus on stratified groups relative to a half-space.

Everything here comes in two routes wherever that is possible: an exact
route through the polynomial coefficient tables (pairings, divergences,
closed-form derivatives of the distance) and a finite-difference route that
knows nothing about the tables.  The two routes are compared in the test
suite.  Every operation takes an (M, n) array of points and returns one
value or row per point.  :func:`sample_trial` evaluates a trial function
and the half-space geometry once at a batch of quadrature nodes; the
experiments' integrands are array expressions over that sample.

Finite differences are central with default step ``H_STEP`` scaled per
point by max(1, |x|_inf).  The nested divergence in the p-sub-Laplacian
uses a larger outer step (sqrt(H_STEP) * 1e-2) because the flux it
differentiates is itself produced by a first derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .groups import GroupSpec, apply_field_to_polynomial
from .polynomials import Polynomial

__all__ = [
    "H_STEP",
    "HalfSpace",
    "halfspace_preset",
    "ScalarField",
    "distance_field",
    "pairing_polynomials",
    "field_pairings",
    "horizontal_from_euclidean",
    "apply_field_to_polynomial",
    "horizontal_gradient_many",
    "angle_function_many",
    "TrialSample",
    "sample_trial",
    "identity_Xi_pairing_many",
    "sub_laplacian_distance_polynomial",
    "distance_flux_parts",
    "p_sub_laplacian_distance_many",
    "p_sub_laplacian_fd_many",
    "angle_gradient_many",
    "orthogonality_identity_many",
]

H_STEP = 1e-4


def _fd_scale(points: np.ndarray) -> np.ndarray:
    """Per-point step scale max(1, |x|_inf); keeps steps sane far from 0."""
    if points.shape[1] == 0:
        return np.ones(points.shape[0])
    return np.maximum(1.0, np.max(np.abs(points), axis=1))


@dataclass
class HalfSpace:
    """The set ``<x, nu> > d`` for a unit normal nu; nu is normalized on init
    and d must be finite."""

    nu: np.ndarray
    d: float = 0.0

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float).reshape(-1)
        norm = float(np.linalg.norm(nu))
        if not np.isfinite(norm) or norm == 0.0:
            raise ValueError("half-space normal must be nonzero and finite")
        self.nu = nu / norm
        self.d = float(self.d)
        if not np.isfinite(self.d):
            raise ValueError(f"half-space offset d must be finite, got {self.d!r}")

    @property
    def dim(self) -> int:
        return self.nu.shape[0]

    def distance(self, points) -> np.ndarray:
        """Affine boundary distance <x, nu> - d; positive inside."""
        points = np.asarray(points, dtype=float)
        return points @ self.nu - self.d

    def contains(self, points) -> np.ndarray:
        return self.distance(points) > 0.0


def halfspace_preset(dim, name: str, d: float = 0.0) -> HalfSpace:
    """Named normals: "t-axis" is the last coordinate, "x1-axis" the first."""
    if isinstance(dim, GroupSpec):
        dim = dim.total_dim
    dim = int(dim)
    nu = np.zeros(dim)
    if name == "t-axis":
        nu[-1] = 1.0
    elif name == "x1-axis":
        nu[0] = 1.0
    else:
        raise ValueError(f"unknown half-space preset {name!r}")
    return HalfSpace(nu=nu, d=d)


class ScalarField:
    """A scalar function with optional exact gradient and support.

    ``fn`` maps an (M, n) array to (M,); ``grad_fn``, if given, maps
    (M, n) to (M, n).  If ``support_box`` is set (an (n, 2) array of
    [lo, hi] rows), the evaluator must return 0 outside it; constructors in
    this package guarantee that.  If ``support`` is set, calling it on
    (M, n) points gives an (M,) bool mask, and the field and its gradient
    must be exactly 0.0 wherever the mask is False; ``support.chord(points,
    axis)`` gives two (M,) arrays lo and hi such that every point of the
    mask on the line through each point along coordinate ``axis`` has its
    ``axis`` coordinate in [lo, hi] (lo > hi where the line holds none);
    the interval may be wider than needed.  Quadrature builds no node
    outside the chord of its line and skips the nodes outside the mask
    (see :func:`~strathardy.quadrature.integrate_many`).  ``None`` means
    the support is not known beyond ``support_box``.

    A field whose values and gradients share their arithmetic is given by
    ``fn_and_grad`` instead of ``fn`` and ``grad_fn``: it maps (M, n) to
    the pair (values, exact gradients), and :meth:`values_and_gradients`
    evaluates it once.
    """

    def __init__(
        self,
        dim: int,
        fn: Callable[[np.ndarray], np.ndarray] | None = None,
        grad_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        support_box: np.ndarray | None = None,
        label: str = "field",
        support: Callable[[np.ndarray], np.ndarray] | None = None,
        fn_and_grad: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None,
    ):
        if (fn is None) == (fn_and_grad is None) or (fn is None and grad_fn is not None):
            raise ValueError("give fn (with grad_fn or not), or fn_and_grad alone")
        self.dim = int(dim)
        self._fn = fn
        self._grad_fn = grad_fn
        self._fn_and_grad = fn_and_grad
        self.support_box = None if support_box is None else np.asarray(support_box, float)
        if self.support_box is not None and self.support_box.shape != (self.dim, 2):
            raise ValueError(f"support_box must have shape ({self.dim}, 2)")
        self.label = label
        self.support = support

    @property
    def has_exact_grad(self) -> bool:
        return self._grad_fn is not None or self._fn_and_grad is not None

    def _as_points(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError(f"expected (M, {self.dim}) points, got shape {points.shape}")
        return points

    def values(self, points) -> np.ndarray:
        if self._fn is None:
            return self.values_and_gradients(points)[0]
        return np.asarray(self._fn(self._as_points(points)), dtype=float)

    def gradients(self, points, h: float = H_STEP) -> np.ndarray:
        """Exact gradients when available, else central differences."""
        if self._fn is None:
            return self.values_and_gradients(points)[1]
        points = self._as_points(points)
        if self._grad_fn is not None:
            return np.asarray(self._grad_fn(points), dtype=float)
        steps = h * _fd_scale(points)
        out = np.empty_like(points)
        for j in range(self.dim):
            shift = np.zeros(self.dim)
            shift[j] = 1.0
            up = self._fn(points + steps[:, None] * shift)
            dn = self._fn(points - steps[:, None] * shift)
            out[:, j] = (np.asarray(up) - np.asarray(dn)) / (2.0 * steps)
        return out

    def values_and_gradients(self, points) -> tuple[np.ndarray, np.ndarray]:
        """``(values(points), gradients(points))``, from one evaluation where
        the field is given by ``fn_and_grad``."""
        if self._fn_and_grad is None:
            return self.values(points), self.gradients(points)
        values, grads = self._fn_and_grad(self._as_points(points))
        return np.asarray(values, dtype=float), np.asarray(grads, dtype=float)

    def scaled(self, factor: float) -> "ScalarField":
        """The field factor * self, with the gradient scaled to match."""
        factor = float(factor)
        fn = fn_and_grad = None
        if self.has_exact_grad:

            def fn_and_grad(pts):
                values, grads = self.values_and_gradients(pts)
                return factor * values, factor * grads

        else:
            fn = lambda pts: factor * np.asarray(self._fn(pts), dtype=float)
        return ScalarField(
            self.dim,
            fn=fn,
            support_box=self.support_box,
            label=f"{factor!r}*{self.label}",
            support=self.support,
            fn_and_grad=fn_and_grad,
        )


def distance_field(hs: HalfSpace) -> ScalarField:
    """The boundary distance as a ScalarField with exact gradient nu."""
    nu = hs.nu

    def grad(points):
        return np.broadcast_to(nu, points.shape).copy()

    return ScalarField(
        hs.dim,
        fn=hs.distance,
        grad_fn=grad,
        label=f"dist(nu={np.array2string(nu, separator=',')},d={hs.d!r})",
    )


# -- pairings and horizontal derivatives -------------------------------------


def _check_dims(spec: GroupSpec, hs: HalfSpace) -> None:
    if hs.dim != spec.total_dim:
        raise ValueError(
            f"half-space normal has {hs.dim} coordinates, group has {spec.total_dim}"
        )


def pairing_polynomials(spec: GroupSpec, hs: HalfSpace) -> list[Polynomial]:
    """Exact polynomials P_k(x) = <X_k(x), nu>, one per horizontal field.

    P_k is the horizontal component k of the gradient of the boundary
    distance; its Euclidean form is nu_k plus the coefficient polynomials
    of field k contracted with the upper-strata part of nu.
    """
    _check_dims(spec, hs)
    n = spec.total_dim
    out = []
    for k in range(spec.horizontal_dim):
        p = Polynomial.constant(n, hs.nu[k])
        for slot, poly in spec.coeffs[k]:
            p = p + poly.scale(hs.nu[slot])
        out.append(p)
    return out


def field_pairings(spec: GroupSpec, hs: HalfSpace, points) -> np.ndarray:
    """Evaluate all pairings <X_k(x), nu> at (M, n) points; returns (M, N)."""
    points = np.asarray(points, dtype=float)
    polys = pairing_polynomials(spec, hs)
    return np.stack([p.eval_many(points) for p in polys], axis=1)


def horizontal_from_euclidean(spec: GroupSpec, points, grads) -> np.ndarray:
    """Combine Euclidean gradients (M, n) into horizontal ones (M, N).

    Component k is grad_k plus the field-k coefficient polynomials
    evaluated at the points times the matching gradient slots.
    """
    points = np.asarray(points, dtype=float)
    grads = np.asarray(grads, dtype=float)
    nh = spec.horizontal_dim
    out = grads[:, :nh].copy()
    for k in range(nh):
        for slot, poly in spec.coeffs[k]:
            out[:, k] += poly.eval_many(points) * grads[:, slot]
    return out


def horizontal_gradient_many(
    spec: GroupSpec, f: ScalarField, points, h: float = H_STEP
) -> np.ndarray:
    """The horizontal gradients (X_1 f, ..., X_N f) at (M, n) points; (M, N)."""
    points = np.asarray(points, dtype=float)
    return horizontal_from_euclidean(spec, points, f.gradients(points, h))


def angle_function_many(spec: GroupSpec, hs: HalfSpace, points) -> np.ndarray:
    """The angle function W, the horizontal norm of the distance gradient."""
    pair = field_pairings(spec, hs, points)
    return np.sqrt(np.sum(pair * pair, axis=1))


@dataclass(frozen=True)
class TrialSample:
    """A trial function u and the half-space geometry at a batch of points.

    Rows follow ``points`` (M, n): ``u`` is the trial's values and ``grad``
    its Euclidean gradient (M, n).  ``hgrad``, its horizontal gradient
    (M, N), ``dist``, the boundary distance, and ``w``, the angle function,
    are computed on first read, so integrands that do not read them do not
    pay for them.  A sample made by :meth:`with_trial` reads dist and W from
    the ``source`` sample it was made from.  ``len(sample)`` is M.
    """

    spec: GroupSpec
    hs: HalfSpace
    points: np.ndarray
    u: np.ndarray
    grad: np.ndarray
    source: TrialSample | None = None

    @cached_property
    def hgrad(self) -> np.ndarray:
        return horizontal_from_euclidean(self.spec, self.points, self.grad)

    @cached_property
    def dist(self) -> np.ndarray:
        if self.source is not None:
            return self.source.dist
        return self.hs.distance(self.points)

    @cached_property
    def w(self) -> np.ndarray:
        if self.source is not None:
            return self.source.w
        return angle_function_many(self.spec, self.hs, self.points)

    def with_trial(self, u: np.ndarray, grad: np.ndarray) -> TrialSample:
        """The sample of another trial at the same points, from its values
        and Euclidean gradients; dist and W are computed once for both."""
        return TrialSample(self.spec, self.hs, self.points, u, grad, source=self)

    def __len__(self) -> int:
        return self.points.shape[0]


def sample_trial(spec: GroupSpec, hs: HalfSpace, u: ScalarField, points) -> TrialSample:
    """Evaluate u and its gradients once at (M, n) points, in one call of
    :meth:`ScalarField.values_and_gradients`; grad_H u, dist and W on demand."""
    points = np.asarray(points, dtype=float)
    values, grad = u.values_and_gradients(points)
    return TrialSample(spec=spec, hs=hs, points=points, u=values, grad=grad)


def identity_Xi_pairing_many(
    spec: GroupSpec, hs: HalfSpace, points, h: float = H_STEP
) -> np.ndarray:
    """Batch residual of the pairing identity at (M, n) points.

    The finite-difference route deliberately ignores the exact gradient of
    the affine function <., nu>, so this really compares the coefficient
    table against numerical differentiation.
    """
    _check_dims(spec, hs)
    points = np.asarray(points, dtype=float)
    raw = ScalarField(spec.total_dim, fn=hs.distance, label="dist-fd")
    hor = horizontal_from_euclidean(spec, points, raw.gradients(points, h))
    exact = field_pairings(spec, hs, points)
    return np.max(np.abs(hor - exact), axis=1)


# -- p-sub-Laplacian ----------------------------------------------------------


def sub_laplacian_distance_polynomial(spec: GroupSpec, hs: HalfSpace) -> Polynomial:
    """sum_k X_k <X_k, nu> as an exact polynomial; zero means the distance
    is harmonic for the sub-Laplacian."""
    polys = pairing_polynomials(spec, hs)
    out = Polynomial.zero(spec.total_dim)
    for k, p in enumerate(polys):
        out = out + apply_field_to_polynomial(spec, k, p)
    return out


def distance_flux_parts(spec: GroupSpec, hs: HalfSpace) -> tuple[Polynomial, Polynomial]:
    """Exact polynomial parts (S1, S2) of the p-flux divergence of dist.

    Writing P_k = <X_k, nu> and W^2 = sum P_k^2, the divergence of the flux
    W^(p-2) P_k decomposes as W^(p-2) S1 + (p-2) W^(p-4) S2 with

        S1 = sum_k X_k P_k
        S2 = sum_{k,i} P_k P_i X_k P_i

    both exact polynomials.  If both are zero, dist is p-harmonic for every
    p wherever W > 0.
    """
    polys = pairing_polynomials(spec, hs)
    n = spec.total_dim
    s1 = Polynomial.zero(n)
    s2 = Polynomial.zero(n)
    for k, pk in enumerate(polys):
        diag = apply_field_to_polynomial(spec, k, pk)
        s1 = s1 + diag
        if not diag.is_zero:
            s2 = s2 + pk * pk * diag
        # off-diagonal terms grouped as P_k P_i (X_k P_i + X_i P_k): summing
        # the derivative pair first lets antisymmetric tables cancel exactly
        # instead of leaving ulp dust from interleaved accumulation
        for i in range(k + 1, len(polys)):
            pi_ = polys[i]
            pair = apply_field_to_polynomial(spec, k, pi_) + apply_field_to_polynomial(
                spec, i, pk
            )
            if not pair.is_zero:
                s2 = s2 + pk * pi_ * pair
    return s1, s2


def p_sub_laplacian_distance_many(
    spec: GroupSpec, hs: HalfSpace, points, p: float
) -> np.ndarray:
    """Closed-form p-sub-Laplacian of the boundary distance at (M, n) points.

    Valid wherever the angle function is positive; points with W = 0 get nan.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    points = np.asarray(points, dtype=float)
    s1, s2 = distance_flux_parts(spec, hs)
    pair = field_pairings(spec, hs, points)
    w2 = np.sum(pair * pair, axis=1)
    out = np.full(points.shape[0], np.nan)
    ok = w2 > 0.0
    if np.any(ok):
        w2ok = w2[ok]
        out[ok] = w2ok ** ((p - 2.0) / 2.0) * s1.eval_many(points[ok]) + (
            p - 2.0
        ) * w2ok ** ((p - 4.0) / 2.0) * s2.eval_many(points[ok])
    return out


def p_sub_laplacian_fd_many(
    spec: GroupSpec, f: ScalarField, points, p: float, h: float = H_STEP
) -> np.ndarray:
    """Generic nested-FD p-sub-Laplacian sum_k X_k(|grad_H f|^(p-2) X_k f)
    at (M, n) points.

    For p < 2 a vanishing horizontal gradient at any probe point makes the
    flux singular; the result is then nan rather than a fake number.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    points = np.asarray(points, dtype=float)
    m, n = points.shape
    nh = spec.horizontal_dim
    outer = np.sqrt(h) * 1e-2 * _fd_scale(points)  # flux is already one derivative deep

    # probe layout: for each point, axis j gives rows (2j) = +step, (2j+1) = -step
    probes = np.repeat(points[:, None, :], 2 * n, axis=1)
    idx = np.arange(n)
    probes[:, 2 * idx, idx] += outer[:, None]
    probes[:, 2 * idx + 1, idx] -= outer[:, None]
    flat = probes.reshape(m * 2 * n, n)

    hor = horizontal_from_euclidean(spec, flat, f.gradients(flat, h))
    w2 = np.sum(hor * hor, axis=1)
    if p == 2.0:
        flux = hor
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            flux = np.where(w2[:, None] > 0.0, w2[:, None] ** ((p - 2.0) / 2.0), 0.0) * hor
        if p < 2.0:
            flux[w2 == 0.0] = np.nan
    flux = flux.reshape(m, 2 * n, nh)

    dflux = (flux[:, 2 * idx, :] - flux[:, 2 * idx + 1, :]) / (2.0 * outer[:, None, None])
    # dflux[q, j, k] = d(flux_k)/dx_j at point q
    out = np.einsum("qkk->q", dflux[:, :nh, :])
    for k in range(nh):
        for slot, poly in spec.coeffs[k]:
            out += poly.eval_many(points) * dflux[:, slot, k]
    return out


# -- Heisenberg closed forms ---------------------------------------------------


def _split_heisenberg(hs: HalfSpace, points: np.ndarray, n: int):
    x = points[:, :n]
    y = points[:, n : 2 * n]
    nux = hs.nu[:n]
    nuy = hs.nu[n : 2 * n]
    nut = hs.nu[2 * n]
    gx = nux + 2.0 * y * nut
    gy = nuy - 2.0 * x * nut
    return gx, gy, nut


def angle_gradient_many(n: int, hs: HalfSpace, points) -> np.ndarray:
    """Closed-form horizontal gradient of the angle function on index-n
    Heisenberg coordinates; rows are (X_1 W .. X_n W, Y_1 W .. Y_n W).

    Undefined (nan) where the angle function vanishes.
    """
    points = np.asarray(points, dtype=float)
    if hs.dim != 2 * n + 1 or points.shape[1] != 2 * n + 1:
        raise ValueError("dimension mismatch for Heisenberg closed form")
    gx, gy, nut = _split_heisenberg(hs, points, n)
    w = np.sqrt(np.sum(gx * gx, axis=1) + np.sum(gy * gy, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(w > 0.0, 2.0 * nut / w, np.nan)
    return np.concatenate([-gy, gx], axis=1) * factor[:, None]


def orthogonality_identity_many(n: int, hs: HalfSpace, points) -> np.ndarray:
    """|<grad_H dist, grad_H W>| at (M, n) points; exactly 0 in floats.

    The two closed-form factors pair component products with themselves, so
    the cancellation survives floating point bit for bit.  Points where the
    angle function vanishes return nan (the second factor is undefined).
    """
    points = np.asarray(points, dtype=float)
    if hs.dim != 2 * n + 1 or points.shape[1] != 2 * n + 1:
        raise ValueError("dimension mismatch for Heisenberg closed form")
    gx, gy, nut = _split_heisenberg(hs, points, n)
    w = np.sqrt(np.sum(gx * gx, axis=1) + np.sum(gy * gy, axis=1))
    # sum_i [gx_i * (-gy_i) + gy_i * gx_i]: each i cancels exactly in IEEE floats
    paired = np.sum(gx * (-gy) + gy * gx, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(w > 0.0, np.abs(2.0 * nut / w * paired), np.nan)
    return out
