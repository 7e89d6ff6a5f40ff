"""Identity suite: exact and finite-difference cross-checks on Heisenberg
groups of index 1..3 at randomized points and normals.

The six checks, with their tolerances:

  pairing-fd      |<X_k, nu> - FD X_k <., nu>| < 1e-6
  harmonic-dist   sum_k X_k <X_k, nu> is the zero polynomial (exact)
  p-harmonic-fd   |FD p-sub-Laplacian of dist| < 1e-4 for p in {2, 3}
  orthogonality   |<grad_H dist, grad_H W>| < 1e-12
  commutator      [X_i, Y_j] = -4 delta_ij d/dt, exact polynomial equality
  translation-jac |det D(left translation) - 1| < 1e-10

The p-harmonic FD check filters sample points to angle function W >= 0.2:
the flux |grad_H dist|^(p-2) grad_H dist is not twice differentiable where
W vanishes (the operation's differentiability precondition), and the
conditioning of nested differences degrades like 1/W^2 near that set.  The
tolerance itself is not relaxed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import (
    HalfSpace,
    angle_function_many,
    distance_field,
    halfspace_preset,
    identity_Xi_pairing_many,
    orthogonality_identity_many,
    p_sub_laplacian_fd_many,
    sub_laplacian_distance_polynomial,
)
from .errors import Refusal
from .groups import (
    commutator_check,
    heisenberg_group,
    left_translation_jacobian,
)
from .polynomials import Polynomial
from .streams import IDENTITIES, philox_stream

__all__ = ["IdentityCheck", "run_identity_suite"]

W_FLOOR = 0.2


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    group: str
    residual: float
    tolerance: float
    passed: bool


# the suite's streams for each group index n: stream 3n + kind of the
# identity domain
_POINTS, _NORMALS, _PAIRS = range(3)


def _stream(seed: int, n: int, kind: int) -> np.random.Generator:
    return philox_stream(seed, 3 * n + kind, IDENTITIES)


def _sample_points(gen, count: int, dim: int, halfwidth: float = 1.5) -> np.ndarray:
    return gen.uniform(-halfwidth, halfwidth, size=(count, dim))


def _sample_normals(gen, count: int, dim: int) -> list[np.ndarray]:
    normals = []
    while len(normals) < count:
        v = gen.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm > 1e-3:
            normals.append(v / norm)
    return normals


def _max_coeff(poly: Polynomial) -> float:
    terms = poly.terms
    return max((abs(c) for c in terms.values()), default=0.0)


def run_identity_suite(
    indices=(1, 2, 3),
    points: int = 1000,
    seed: int = 2024,
    random_normals: int = 2,
) -> list[IdentityCheck]:
    """Run all checks on the Heisenberg groups of the given indices; an
    index or a point count below 1 is refused before any check runs."""
    if any(n < 1 for n in indices):
        raise Refusal(f"identity_indices must be Heisenberg indices >= 1, got {list(indices)}")
    if points < 1:
        raise Refusal(f"identity_points must be positive, got {points}")
    checks: list[IdentityCheck] = []
    for n in indices:
        spec = heisenberg_group(n)
        dim = spec.total_dim
        pts = _sample_points(_stream(seed, n, _POINTS), points, dim)
        normals = [
            halfspace_preset(dim, "t-axis").nu,
            halfspace_preset(dim, "x1-axis").nu,
        ] + _sample_normals(_stream(seed, n, _NORMALS), random_normals, dim)
        halfspaces = [HalfSpace(nu=nu, d=0.0) for nu in normals]

        res = max(float(np.max(identity_Xi_pairing_many(spec, hs, pts))) for hs in halfspaces)
        checks.append(IdentityCheck("pairing-fd", spec.name, res, 1e-6, res < 1e-6))

        res = max(_max_coeff(sub_laplacian_distance_polynomial(spec, hs)) for hs in halfspaces)
        checks.append(IdentityCheck("harmonic-dist", spec.name, res, 0.0, res == 0.0))

        dist_fields = [distance_field(hs) for hs in halfspaces]
        goods = [pts[angle_function_many(spec, hs, pts) >= W_FLOOR] for hs in halfspaces]
        ps = (2.0, 3.0)  # one FD flux per normal serves both
        fd = [p_sub_laplacian_fd_many(spec, f, good, ps) for f, good in zip(dist_fields, goods)]
        for row, p in enumerate(ps):
            res = max(0.0, *(float(np.max(np.abs(vals[row]))) for vals in fd))
            name = f"p-harmonic-fd(p={p:g})"
            checks.append(IdentityCheck(name, spec.name, res, 1e-4, res < 1e-4))

        res = 0.0
        for hs in halfspaces:
            vals = orthogonality_identity_many(n, hs, pts)
            vals = vals[np.isfinite(vals)]
            if vals.size:
                res = max(res, float(np.max(vals)))
        checks.append(IdentityCheck("orthogonality", spec.name, res, 1e-12, res < 1e-12))

        res = 0.0
        tslot = 2 * n
        for i in range(n):
            for j in range(n):
                bracket = commutator_check(spec, i, n + j)
                expected = [Polynomial.zero(dim) for _ in range(dim)]
                if i == j:
                    expected[tslot] = Polynomial.constant(dim, -4.0)
                res = max(res, max(_max_coeff(bm - em) for bm, em in zip(bracket, expected)))
        checks.append(IdentityCheck("commutator", spec.name, res, 0.0, res == 0.0))

        pairs = _sample_points(_stream(seed, n, _PAIRS), 2 * points, dim)
        dets = left_translation_jacobian(pairs[:points], pairs[points:], n)
        res = float(np.max(np.abs(dets - 1.0)))
        checks.append(IdentityCheck("translation-jac", spec.name, res, 1e-10, res < 1e-10))
    return checks
