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
from functools import cached_property, lru_cache
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
    "angle_function_many",
    "TrialSample",
    "sample_trial",
    "identity_Xi_pairing_many",
    "sub_laplacian_distance_polynomial",
    "distance_flux_parts",
    "p_sub_laplacian_distance_many",
    "p_sub_laplacian_fd_many",
    "orthogonality_identity_many",
]

H_STEP = 1e-4
_FD_BLOCK = 256  # points of one block of p_sub_laplacian_fd_many


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
        """Affine boundary distance <x, nu> - d; positive inside.  The same bits
        in any layout: one column on an axis normal, else over row-major points.
        Not for any subset of rows on an oblique normal: the matrix-vector
        product there can move its last bits with the rows it is given."""
        points = np.asarray(points, dtype=float)
        (axes,) = np.nonzero(self.nu)
        if axes.size == 1:
            return points[..., axes[0]] * self.nu[axes[0]] - self.d
        return np.ascontiguousarray(points) @ self.nu - self.d


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
    this package guarantee that.  If ``support`` is set (a bump's
    :class:`~strathardy.trials.BumpSupport`), the field and its gradient
    are exactly 0.0 outside it, and ``support.chord(points, axis)`` gives
    two (M,) arrays lo and hi such that every point of the support on the
    line through each of the (M, n) points along coordinate ``axis`` has
    its ``axis`` coordinate in [lo, hi] (lo > hi where the line holds
    none); the interval may be wider than needed (quadrature builds no node
    outside it, see :func:`~strathardy.quadrature.integrate_many`).
    ``None`` means the support is not known beyond ``support_box``.

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
        support: object | None = None,
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
        for j, shift in enumerate(np.eye(self.dim)):
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

    def _sample(self, spec, hs: HalfSpace, points: np.ndarray, dist: np.ndarray, local=None) -> "TrialSample":
        """This field's :class:`TrialSample` at points of boundary distance
        dist; :func:`sample_trial` calls it.  ``local``, the points' offsets
        in the frame of the rule that placed them (see
        :func:`sample_trial`), is ignored here: a field that can read it
        overrides this method."""
        values, grad = self.values_and_gradients(points)
        return TrialSample(spec, hs, points, dist, values, grad)


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
        raise ValueError(f"half-space normal has {hs.dim} coordinates, group has {spec.total_dim}")


def pairing_polynomials(spec: GroupSpec, hs: HalfSpace) -> tuple[Polynomial, ...]:
    """Exact polynomials P_k(x) = <X_k(x), nu>, one per horizontal field.

    P_k is the horizontal component k of the gradient of the boundary
    distance; its Euclidean form is nu_k plus the coefficient polynomials
    of field k contracted with the upper-strata part of nu.
    """
    _check_dims(spec, hs)
    return _pairing_polynomials(spec, tuple(hs.nu.tolist()))


# every sample of a trial reads W, so the polynomials of a (group, normal)
# pair are built once
@lru_cache(maxsize=16)
def _pairing_polynomials(spec: GroupSpec, nu: tuple[float, ...]) -> tuple[Polynomial, ...]:
    n = spec.total_dim
    out = []
    for k in range(spec.horizontal_dim):
        p = Polynomial.constant(n, nu[k])
        for slot, poly in spec.coeffs[k]:
            p = p + poly.scale(nu[slot])
        out.append(p)
    return tuple(out)


def field_pairings(spec: GroupSpec, hs: HalfSpace, points) -> np.ndarray:
    """Evaluate all pairings <X_k(x), nu> at (M, n) points; returns (M, N), column-major."""
    points = np.asarray(points, dtype=float)
    polys = pairing_polynomials(spec, hs)
    return np.stack([p.eval_many(points) for p in polys]).T


def horizontal_from_euclidean(spec: GroupSpec, points, grads) -> np.ndarray:
    """Combine Euclidean gradients (M, n) into horizontal ones (M, N).

    Component k is grad_k plus the field-k coefficient polynomials
    evaluated at the points times the matching gradient slots.
    """
    points = np.asarray(points, dtype=float)
    grads = np.asarray(grads, dtype=float)
    nh = spec.horizontal_dim
    out = grads[:, :nh].copy(order="K")
    for k in range(nh):
        for slot, poly in spec.coeffs[k]:
            out[:, k] += poly.eval_many(points) * grads[:, slot]
    return out


def angle_function_many(spec: GroupSpec, hs: HalfSpace, points) -> np.ndarray:
    """The angle function W, the horizontal norm of the distance gradient."""
    pairs = (poly.eval_many(points) for poly in pairing_polynomials(spec, hs))
    return np.sqrt(_sum_squares(pairs, len(points)))


def _sum_squares(columns, m: int) -> np.ndarray:
    """The sum of the squares of (m,) columns, added in order: below 8 columns the bits
    of ``np.sum(a * a, axis=1)``, which adds 8 or more row-major ones pairwise."""
    columns = iter(columns)
    first = next(columns, None)
    total = np.zeros(m) if first is None else first * first
    for col in columns:
        total += col * col
    return total


@dataclass(frozen=True)
class TrialSample:
    """The half-space geometry at a batch of points, and a trial function u there.

    Rows follow ``points`` (M, n), in any layout (quadrature nodes are
    column-major) with the same values.  ``dist`` is the boundary distance
    the sample is given (at quadrature nodes, the rule's own).  ``u`` and
    its Euclidean gradient ``grad`` (M, n) are None without a trial, and a
    sample made by :meth:`with_trial` is given ``hgrad`` for ``grad``.  At
    the nodes of the ball rule a bump's u and grad come from the rule's
    local coordinates, not from ``points``; they agree with
    :meth:`ScalarField.values_and_gradients` of ``points`` to rounding.
    ``hgrad``, the horizontal gradient (M, N), the pairings P = <X_k, nu>
    (M, N) and ``w`` = |P| (both read from ``source`` on a sample made by
    :meth:`with_trial`; W from P if it is held), and the bases the Hardy
    integrands of every p share, ``hgrad_sq`` = |grad_H u|^2 and
    ``weighted_u`` = W |u| / dist, are computed on first read.
    ``len(sample)`` is M.
    """

    spec: GroupSpec | None
    hs: HalfSpace
    points: np.ndarray
    dist: np.ndarray
    u: np.ndarray | None = None
    grad: np.ndarray | None = None
    source: TrialSample | None = None

    @cached_property
    def hgrad(self) -> np.ndarray:
        return horizontal_from_euclidean(self.spec, self.points, self.grad)

    @cached_property
    def pairings(self) -> np.ndarray:
        if self.source is not None:
            return self.source.pairings
        return field_pairings(self.spec, self.hs, self.points)

    @cached_property
    def w(self) -> np.ndarray:
        if self.source is not None:
            return self.source.w
        if "pairings" in vars(self):  # held: not evaluated a second time
            return np.sqrt(_sum_squares(self.pairings.T, len(self)))
        return angle_function_many(self.spec, self.hs, self.points)

    @cached_property
    def hgrad_sq(self) -> np.ndarray:
        return _sum_squares(self.hgrad.T, len(self))

    @cached_property
    def weighted_u(self) -> np.ndarray:
        return self.w * np.abs(self.u) / self.dist

    def horizontal_split(self, a: float) -> tuple[np.ndarray, np.ndarray]:
        """(A, B), both (M, N): A = a (u / dist) P and B = grad_H u - A.  At
        a = (p-1)/p, |B|^p is dist^(p-1) |grad_H v|^p, v = dist^(-a) u."""
        a_part = (a * (self.u / self.dist))[:, None] * self.pairings
        return a_part, self.hgrad - a_part

    def with_trial(self, u: np.ndarray, hgrad: np.ndarray) -> TrialSample:
        """The sample of another trial at the same points, from its values
        and horizontal gradients; dist, P and W are shared by both."""
        derived = TrialSample(self.spec, self.hs, self.points, self.dist, u, source=self)
        derived.__dict__["hgrad"] = hgrad  # given, so never converted from a grad
        return derived

    def __len__(self) -> int:
        return self.points.shape[0]


def sample_trial(spec: GroupSpec, hs: HalfSpace, u, points, dist=None, local=None) -> TrialSample:
    """The sample of u (or of the points alone, for None) at (M, n) points
    of boundary distance ``dist``, ``hs.distance(points)`` if None.

    u and grad u come from one :meth:`ScalarField.values_and_gradients`
    call.  A field that depends on dist is not sampled here, where it
    would work dist back out of the points, which round by about
    1e-16 |x| while a quadrature rule's exact dist reaches 1e-32: its
    sample is derived from one that reads the sample's ``dist`` (as
    :func:`~strathardy.trials.power_weighted_sample` does for dist^a u).
    ``local`` is what the rule that placed the points knows of them in its
    own frame: on the ball rule the triple (z, f, slope) of the unit-ball
    offsets z = (x - c) / r, (M, n), and a bump's profile and its slope in
    S = |z|^2, (M,) each (``trials.bump_profile``).  A bump about that
    ball's centre evaluates itself from it, never from the rounded points;
    any other field ignores it.
    """
    points = np.asarray(points, dtype=float)
    dist = hs.distance(points) if dist is None else dist
    if u is None:
        return TrialSample(spec, hs, points, dist)
    return u._sample(spec, hs, points, dist, local)


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
    _check_dims(spec, hs)
    return _distance_flux_parts(spec, tuple(hs.nu.tolist()))


# depends only on (group, normal), and every trial and p of a command reads it
@lru_cache(maxsize=16)
def _distance_flux_parts(spec: GroupSpec, nu: tuple[float, ...]) -> tuple[Polynomial, Polynomial]:
    polys = _pairing_polynomials(spec, nu)
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


def p_sub_laplacian_distance_many(spec: GroupSpec, hs: HalfSpace, points, p: float) -> np.ndarray:
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
    spec: GroupSpec, f: ScalarField, points, ps, h: float = H_STEP
) -> np.ndarray:
    """Generic nested-FD p-sub-Laplacian sum_k X_k(|grad_H f|^(p-2) X_k f)
    at (M, n) points, one row for each p of ``ps``: shape (len(ps), M).

    The probes, the horizontal gradient of f at them, its squared norm and
    the coefficient polynomials at the points are computed once for every
    p; each row equals, bit for bit, a call with its p alone.  For p < 2 a
    vanishing horizontal gradient at any probe point makes the flux
    singular; the value there is then nan rather than a fake number.  Each
    value comes from its own point's probes alone, so the points are taken
    ``_FD_BLOCK`` at a time and a call holds one block's probes.
    """
    ps = [float(p) for p in ps]
    if any(p <= 1 for p in ps):
        raise ValueError("p must exceed 1")
    points = np.asarray(points, dtype=float)
    if len(points) > _FD_BLOCK:
        starts = range(0, len(points), _FD_BLOCK)
        return np.concatenate([p_sub_laplacian_fd_many(spec, f, points[a : a + _FD_BLOCK], ps, h) for a in starts], 1)
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
    w2 = _sum_squares(hor.T, len(hor))
    coeffs = [(k, slot, poly.eval_many(points)) for k in range(nh) for slot, poly in spec.coeffs[k]]
    out = np.empty((len(ps), m))
    for row, p in zip(out, ps):
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
        row[:] = np.einsum("qkk->q", dflux[:, :nh, :])
        for k, slot, c in coeffs:
            row += c * dflux[:, slot, k]
    return out


# -- Heisenberg closed forms ---------------------------------------------------


def orthogonality_identity_many(n: int, hs: HalfSpace, points) -> np.ndarray:
    """|<grad_H dist, grad_H W>| at (M, n) points; exactly 0 in floats.

    The two closed-form factors pair component products with themselves, so
    the cancellation survives floating point bit for bit.  Points where the
    angle function vanishes return nan (the second factor is undefined).
    """
    points = np.asarray(points, dtype=float)
    if hs.dim != 2 * n + 1 or points.shape[1] != 2 * n + 1:
        raise ValueError("dimension mismatch for Heisenberg closed form")
    nut = hs.nu[2 * n]
    # the pairings with X_i and Y_i: grad_H dist
    gx = hs.nu[:n] + 2.0 * points[:, n : 2 * n] * nut
    gy = hs.nu[n : 2 * n] - 2.0 * points[:, :n] * nut
    w = np.sqrt(np.sum(gx * gx, axis=1) + np.sum(gy * gy, axis=1))
    # sum_i [gx_i * (-gy_i) + gy_i * gx_i]: each i cancels exactly in IEEE floats
    paired = np.sum(gx * (-gy) + gy * gx, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(w > 0.0, np.abs(2.0 * nut / w * paired), np.nan)
    return out
