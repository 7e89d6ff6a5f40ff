"""Trial functions: smooth bumps, the ground-state substitution, and the
near-extremal power family used to probe sharpness of the Hardy constant.

Every constructor returns a :class:`~strathardy.calculus.ScalarField` with
an exact gradient, so quadrature never stacks finite differences on top of
cutoff functions.  Labels are deterministic strings built from the
defining parameters; reports hash them into their config digests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import HalfSpace, ScalarField, TrialSample
from .streams import philox_stream

__all__ = [
    "BumpSpec",
    "make_bump",
    "ground_transform",
    "ground_gradient",
    "inverse_ground_transform",
    "SharpnessSpec",
    "sharpness_trial",
    "boundary_bump_spec",
    "random_interior_bumps",
]


def _fmt(value) -> str:
    if isinstance(value, (list, tuple, np.ndarray)):
        return "(" + ",".join(_fmt(v) for v in np.asarray(value).reshape(-1)) + ")"
    return repr(float(value))


@dataclass(frozen=True)
class BumpSpec:
    """A compactly supported bump: center, radius, per-axis powers.

    The profile is exp(-1 / (1 - S)) on S < 1 and 0 elsewhere, where
    S(x) = sum_i |(x_i - c_i) / r|^(q_i); the default powers q_i = 2 give
    the classical radial bump with value exp(-1) at the center.  Powers
    must be even integers >= 2 so the field is smooth.  The support ball
    may cross the half-space boundary; the boundary-aware families below
    handle the truncation.
    """

    center: tuple
    radius: float
    powers: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ValueError("bump radius must be positive")
        if self.powers is not None:
            powers = tuple(int(q) for q in self.powers)
            if len(powers) != len(self.center):
                raise ValueError("powers must match the dimension of center")
            if any(q < 2 or q % 2 for q in powers):
                raise ValueError("powers must be even integers >= 2")
            object.__setattr__(self, "powers", powers)

    @property
    def dim(self) -> int:
        return len(self.center)

    def label(self) -> str:
        q = "" if self.powers is None else f",powers={_fmt(self.powers)}"
        return f"bump(center={_fmt(self.center)},radius={self.radius!r}{q})"


def make_bump(spec: BumpSpec) -> ScalarField:
    """Build the bump field with exact gradient, tight support box and support mask."""
    center = np.asarray(spec.center, dtype=float)
    r = spec.radius
    powers = np.full(center.size, 2.0) if spec.powers is None else np.asarray(spec.powers, float)

    def shape(points):
        z = (points - center) / r
        return np.sum(np.abs(z) ** powers, axis=1), z

    def support(points):
        return shape(points)[0] < 1.0

    def fn(points):
        s, _ = shape(points)
        out = np.zeros(points.shape[0])
        inside = s < 1.0
        if np.any(inside):
            out[inside] = np.exp(-1.0 / (1.0 - s[inside]))
        return out

    def grad(points):
        s, z = shape(points)
        out = np.zeros_like(points)
        inside = s < 1.0
        if np.any(inside):
            si = s[inside]
            f = np.exp(-1.0 / (1.0 - si))
            dS = powers * np.abs(z[inside]) ** (powers - 1.0) * np.sign(z[inside]) / r
            out[inside] = (-f / (1.0 - si) ** 2)[:, None] * dS
        return out

    box = np.stack([center - r, center + r], axis=1)
    return ScalarField(
        center.size, fn=fn, grad_fn=grad, support_box=box, label=spec.label(), support=support
    )


def boundary_bump_spec(hs: HalfSpace, radius: float, powers=None) -> BumpSpec:
    """Bump centered on the half-space boundary point closest to the origin.

    Centering on the boundary (rather than tangentially inside) makes the
    truncated profile charge the full singular range of the distance, which
    is what the sharpness probe needs: trials supported away from the
    boundary cannot push the quotient down to the sharp constant.
    """
    center = hs.nu * hs.d
    return BumpSpec(center=tuple(center), radius=radius, powers=powers)


def random_interior_bumps(
    hs: HalfSpace,
    count: int,
    seed: int,
    radius_range: tuple[float, float] = (0.1, 0.35),
    region_halfwidth: float = 1.2,
    clearance: float = 0.1,
) -> list[BumpSpec]:
    """Randomized bumps supported strictly inside the half-space.

    Centers are drawn uniformly from a box and pushed along the normal
    until the whole support ball clears the boundary by ``clearance``;
    the Philox stream makes the family a pure function of the seed.
    """
    if count < 1:
        raise ValueError("count must be positive")
    lo_r, hi_r = float(radius_range[0]), float(radius_range[1])
    if not 0 < lo_r <= hi_r:
        raise ValueError("radius_range must be 0 < lo <= hi")
    gen = philox_stream(seed, 2)
    dim = hs.dim
    specs = []
    for _ in range(count):
        center = gen.uniform(-region_halfwidth, region_halfwidth, size=dim)
        radius = gen.uniform(lo_r, hi_r)
        short = (radius + clearance) - float(hs.distance(center))
        if short > 0:
            center = center + short * hs.nu
        specs.append(BumpSpec(center=tuple(center), radius=radius))
    return specs


def _restricted(points, hs):
    d = hs.distance(points)
    inside = d > 0.0
    return d, inside


def ground_transform(u: ScalarField, hs: HalfSpace, p: float) -> ScalarField:
    """The substitution v = dist^(-(p-1)/p) u, defined inside the half-space.

    Inverse of :func:`inverse_ground_transform`; both vanish where dist <= 0.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    a = -(p - 1.0) / p
    return _power_weighted(u, hs, a, f"ground(p={p!r},{u.label})")


def ground_gradient(sample: TrialSample, hs: HalfSpace, p: float) -> np.ndarray:
    """The Euclidean gradient of the ground transform of a sampled trial.

    Built from the sample's dist, u and grad u alone, which must lie inside
    the half-space (as quadrature nodes do); there it equals
    ``ground_transform(u, hs, p).gradients`` bit for bit.
    """
    return _power_weighted_gradient(sample.dist, -(p - 1.0) / p, sample.u, sample.grad, hs.nu)


def inverse_ground_transform(v: ScalarField, hs: HalfSpace, p: float) -> ScalarField:
    """u = dist^((p-1)/p) v, the inverse of :func:`ground_transform`."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    a = (p - 1.0) / p
    return _power_weighted(v, hs, a, f"unground(p={p!r},{v.label})")


def _power_weighted(u: ScalarField, hs: HalfSpace, a: float, label: str) -> ScalarField:
    """dist^a * u with exact gradient dist^a grad u + a dist^(a-1) u nu.

    Both vanish wherever u and grad u do, so the result keeps u's support.
    """
    nu = hs.nu

    def fn(points):
        d, inside = _restricted(points, hs)
        out = np.zeros(points.shape[0])
        if np.any(inside):
            out[inside] = d[inside] ** a * u.values(points[inside])
        return out

    def grad(points):
        d, inside = _restricted(points, hs)
        out = np.zeros_like(points)
        if np.any(inside):
            pts = points[inside]
            out[inside] = _power_weighted_gradient(
                d[inside], a, u.values(pts), u.gradients(pts), nu
            )
        return out

    return ScalarField(
        u.dim, fn=fn, grad_fn=grad, support_box=u.support_box, label=label, support=u.support
    )


def _power_weighted_gradient(d, a, u, grad, nu) -> np.ndarray:
    """dist^a grad u + a dist^(a-1) u nu from dist > 0, u and grad u at the same points."""
    d = d[:, None]
    return d**a * grad + a * d ** (a - 1.0) * u[:, None] * nu


@dataclass(frozen=True)
class SharpnessSpec:
    """Parameters of the near-extremal family u = dist^((p-1)/p + eps) * cutoff.

    As eps decreases to 0 the family approaches the formal extremizer of
    the half-space Hardy quotient; eps > 0 keeps the energy finite.
    """

    p: float
    eps: float
    cutoff: BumpSpec

    def __post_init__(self):
        if self.p <= 1:
            raise ValueError("p must exceed 1")
        if self.eps <= 0:
            raise ValueError("eps must be positive")

    def label(self) -> str:
        return f"sharpness(p={float(self.p)!r},eps={float(self.eps)!r},{self.cutoff.label()})"


def sharpness_trial(spec: SharpnessSpec, hs: HalfSpace) -> ScalarField:
    """Build dist^alpha * cutoff with alpha = (p-1)/p + eps, exact gradient.

    The gradient uses the chain rule with grad dist = nu; the field and its
    gradient vanish outside the half-space and outside the cutoff support.
    """
    cutoff = make_bump(spec.cutoff)
    alpha = (spec.p - 1.0) / spec.p + spec.eps
    field = _power_weighted(cutoff, hs, alpha, spec.label())
    return field
