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

# relative slack of BumpSupport.chord against rounding in S and its root
_CHORD_MARGIN = 1e-12

__all__ = [
    "BumpSpec",
    "BumpSupport",
    "make_bump",
    "ground_transform",
    "ground_gradient",
    "power_weighted_sample",
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
        if any(c - self.radius == c + self.radius for c in self.center):
            raise ValueError(f"bump radius {self.radius!r} vanishes next to its center")
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


class BumpSupport:
    """The open support {S < 1} of a bump, S(x) = sum_i |(x_i - c_i) / r|^(q_i).

    Called on (M, n) points it returns the (M,) bool mask S < 1.
    :meth:`shape` is the arithmetic behind the mask and the bump's values
    and gradients alike, so all three agree bit for bit.
    """

    def __init__(self, center: np.ndarray, radius: float, powers: np.ndarray):
        self.center = center
        self.radius = radius
        self.powers = powers

    def shape(self, points):
        """S at (M, n) points and the scaled offsets z = (x - c) / r."""
        z = (points - self.center) / self.radius
        return np.sum(np.abs(z) ** self.powers, axis=1), z

    def __call__(self, points):
        return self.shape(points)[0] < 1.0

    def chord(self, points, axis: int):
        """(lo, hi) on coordinate ``axis`` of the line through each of the (M, n)
        points along ``axis``: every point of the line with S < 1 lies in
        [lo, hi], and lo > hi where the line misses the support.

        S without its ``axis`` term, R, is at most S anywhere on the line,
        also after rounding, since rounding is monotone; so the line's
        points with S < 1 have |x - c| < r (1 - R)^(1/q) on ``axis``.  The
        relative margin, on 1 - R and on the half-width, keeps a few ulps
        of rounding in S and in the root from cutting off a point with
        S < 1; the ends c -+ half-width need none, as a float below the
        exact end is also below its rounding.  A point kept needlessly
        costs only itself.
        """
        terms = np.abs((points - self.center) / self.radius) ** self.powers
        terms[:, axis] = 0.0
        slack = 1.0 + _CHORD_MARGIN - np.sum(terms, axis=1)
        reach = self.radius * np.maximum(slack, 0.0) ** (1.0 / self.powers[axis])
        half = np.where(slack > 0.0, reach * (1.0 + _CHORD_MARGIN), -np.inf)
        return self.center[axis] - half, self.center[axis] + half


def make_bump(spec: BumpSpec) -> ScalarField:
    """Build the bump field with exact gradient, tight support box and support."""
    center = np.asarray(spec.center, dtype=float)
    r = spec.radius
    powers = np.full(center.size, 2.0) if spec.powers is None else np.asarray(spec.powers, float)
    support = BumpSupport(center, r, powers)

    def fn_and_grad(points):
        s, z = support.shape(points)
        inside = s < 1.0
        # from here on only the nodes inside the support, so that the
        # temporaries are theirs alone
        s, z = s[inside], z[inside]
        f = np.exp(-1.0 / (1.0 - s))
        dS = powers * np.abs(z) ** (powers - 1.0) * np.sign(z) / r
        values = np.zeros(points.shape[0])
        values[inside] = f
        grads = np.zeros_like(points)
        grads[inside] = (-f / (1.0 - s) ** 2)[:, None] * dS
        return values, grads

    box = np.stack([center - r, center + r], axis=1)
    return ScalarField(
        center.size, fn_and_grad=fn_and_grad, support_box=box, label=spec.label(), support=support
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

    Built from the sample's dist, u and grad u alone; it equals
    ``ground_transform(u, hs, p).gradients`` bit for bit.
    """
    return power_weighted_sample(sample, -(p - 1.0) / p).grad


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

    def fn_and_grad(points):
        return _power_weighted_parts(
            hs.distance(points), a, hs.nu, lambda rows: u.values_and_gradients(points[rows])
        )

    return ScalarField(
        u.dim, fn_and_grad=fn_and_grad, support_box=u.support_box, label=label, support=u.support
    )


def power_weighted_sample(sample: TrialSample, a: float) -> TrialSample:
    """The sample of dist^a * u at the points of a sample of u, sharing its dist and W.

    At the sample's points it equals, bit for bit, the sample of the field
    ``dist^a * u`` (as :func:`sharpness_trial` and the ground transforms
    build it): the same arithmetic on the same dist, u and grad u.
    """
    values, grads = _power_weighted_parts(
        sample.dist, a, sample.hs.nu, lambda rows: (sample.u[rows], sample.grad[rows])
    )
    return sample.with_trial(values, grads)


def _power_weighted_parts(d, a, nu, inner) -> tuple[np.ndarray, np.ndarray]:
    """dist^a u and its gradient dist^a grad u + a dist^(a-1) u nu at points
    of boundary distance d, both 0.0 where d <= 0.

    ``inner(rows)`` gives u and grad u at the points that ``rows`` (a bool
    mask of d > 0, or every point) selects, the only points they are read at.
    """
    inside = d > 0.0
    if inside.all():  # as at quadrature nodes: nothing to mask
        return _weighted(d, a, nu, *inner(slice(None)))
    values = np.zeros(d.shape[0])
    grads = np.zeros((d.shape[0], nu.shape[0]))
    if inside.any():
        values[inside], grads[inside] = _weighted(d[inside], a, nu, *inner(inside))
    return values, grads


def _weighted(d, a, nu, u, grad) -> tuple[np.ndarray, np.ndarray]:
    da = d**a
    return da * u, da[:, None] * grad + a * d[:, None] ** (a - 1.0) * u[:, None] * nu


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

    @property
    def exponent(self) -> float:
        """alpha = (p-1)/p + eps, the power of the distance."""
        return (self.p - 1.0) / self.p + self.eps

    def label(self) -> str:
        return f"sharpness(p={float(self.p)!r},eps={float(self.eps)!r},{self.cutoff.label()})"


def sharpness_trial(spec: SharpnessSpec, hs: HalfSpace) -> ScalarField:
    """Build dist^alpha * cutoff with alpha = (p-1)/p + eps, exact gradient.

    The gradient uses the chain rule with grad dist = nu; the field and its
    gradient vanish outside the half-space and outside the cutoff support.
    """
    return _power_weighted(make_bump(spec.cutoff), hs, spec.exponent, spec.label())
