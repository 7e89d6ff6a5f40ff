"""Trial functions: smooth bumps and the near-extremal power family used
to probe sharpness of the Hardy constant.

Every constructor returns a :class:`~strathardy.calculus.ScalarField` with
an exact gradient, so quadrature never stacks finite differences on top of
cutoff functions.  A member dist^alpha * cutoff of the power family
(:class:`SharpnessSpec`) is not a field: its sample is derived from the
cutoff's (:func:`power_weighted_sample`) and holds ``hgrad``, not
``grad``.  At the ball rule's nodes a bump, scaled or not, is evaluated
from the rule's local (z, f, slope), not from the nodes.  Labels are
deterministic strings built from the defining parameters; reports hash
them into their config digests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import HalfSpace, ScalarField, TrialSample, _sum_squares
from .errors import Refusal
from .streams import philox_stream

# relative slack of BumpSupport.chord against rounding in S and its root
_CHORD_MARGIN = 1e-12

__all__ = [
    "BumpSpec",
    "BumpSupport",
    "make_bump",
    "power_weighted_sample",
    "SharpnessSpec",
    "boundary_bump_spec",
    "random_interior_bumps",
]


def _fmt(value) -> str:
    if isinstance(value, (list, tuple, np.ndarray)):
        return "(" + ",".join(_fmt(v) for v in np.asarray(value).reshape(-1)) + ")"
    return repr(float(value))


@dataclass(frozen=True)
class BumpSpec:
    """A compactly supported radial bump: center and radius.

    The profile is exp(-1 / (1 - S)) on S < 1 and 0 elsewhere, where
    S(x) = |x - c|^2 / r^2, the classical radial bump with value exp(-1)
    at the center.  The support ball may cross the half-space boundary;
    the boundary-aware families below handle the truncation.
    """

    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise Refusal(f"bump radius must be positive, got {self.radius!r}")
        if any(c - self.radius == c + self.radius for c in self.center):
            raise Refusal(f"bump radius {self.radius!r} vanishes next to its center")

    def label(self) -> str:
        return f"bump(center={_fmt(self.center)},radius={self.radius!r})"


class BumpSupport:
    """The open ball {S < 1} of a bump, S(x) = sum_i ((x_i - c_i) / r)^2.

    :meth:`shape` is the arithmetic behind the bump's values and gradients
    at points.  S adds its terms z_i * z_i one column at a time, in axis
    order.
    """

    def __init__(self, center: np.ndarray, radius: float):
        self.center, self.radius = center, radius

    def shape(self, points):
        """S at (M, n) points and the scaled offsets z = (x - c) / r."""
        z = (points - self.center) / self.radius
        return self._sum(z), z

    def _sum(self, z, skip=None):
        """The sum of the terms z_i * z_i of S over every axis i but ``skip``."""
        return _sum_squares((col for i, col in enumerate(z.T) if i != skip), len(z))

    def chord(self, points, axis: int):
        """(lo, hi) on coordinate ``axis`` of the line through each of the (M, n)
        points along ``axis``: every point of the line with S < 1 lies in
        [lo, hi], and lo > hi where the line misses the support.

        S without its ``axis`` term, R, is at most S anywhere on the line,
        up to rounding; so the line's points with S < 1 have
        |x - c| < r (1 - R)^(1/2) on ``axis``.  The relative margin, on
        1 - R and on the half-width, keeps a few ulps of rounding in S, in
        R and in the root from cutting off a point with S < 1; the ends
        c -+ half-width need none, as a float below the exact end is also
        below its rounding.  A point kept needlessly costs only itself.
        """
        z = (points - self.center) / self.radius
        slack = 1.0 + _CHORD_MARGIN - self._sum(z, skip=axis)
        reach = self.radius * np.maximum(slack, 0.0) ** 0.5
        half = np.where(slack > 0.0, reach * (1.0 + _CHORD_MARGIN), -np.inf)
        return self.center[axis] - half, self.center[axis] + half


def make_bump(spec: BumpSpec) -> ScalarField:
    """Build the bump field with exact gradient, tight support box and support."""
    return _Bump(BumpSupport(np.asarray(spec.center, dtype=float), spec.radius), spec.label())


def bump_profile(s) -> tuple[np.ndarray, np.ndarray]:
    """The profile f = exp(-1 / (1 - S)) of a bump and its slope df/dS at
    S = s, both 0.0 where s >= 1, off the support."""
    inside = s < 1.0
    # 1 - S, and inf outside the support, where f and its slope are 0.0
    gap = np.where(inside, 1.0 - s, np.inf)
    f = np.where(inside, np.exp(-1.0 / gap), 0.0)
    return f, -f / (gap * gap)


class _Bump(ScalarField):
    """The bump exp(-1 / (1 - S)) on its support, times ``factors`` in turn.

    f and the slope of :func:`bump_profile` come from S of the points, or
    on the ball rule from its template's local (z, f, slope) (see
    :func:`~strathardy.calculus.sample_trial`), never from its rounded nodes.
    """

    def __init__(self, support: BumpSupport, label: str, factors: tuple[float, ...] = ()):
        c, r = support.center, support.radius
        super().__init__(
            c.size, fn_and_grad=self._at_points, support_box=np.stack([c - r, c + r], axis=1),
            label=label, support=support,
        )
        self._factors = factors

    def _at_points(self, points):
        # off the support S and z / r may overflow, and inf * 0.0 is nan: f is 0.0 there, dS zeroed below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            s, z = self.support.shape(points)
            f, slope = bump_profile(s)
            dS = np.multiply(z, 2.0, out=z)
            dS /= self.support.radius
            dS *= slope[:, None]
        dS[~(s < 1.0)] = 0.0
        return self._scaled(f, dS)

    def _scaled(self, f, dS):
        for factor in self._factors:
            f, dS = factor * f, factor * dS
        return f, dS

    def _sample(self, spec, hs, points, dist, local=None):
        if local is None:
            return super()._sample(spec, hs, points, dist)
        z, f, slope = local
        # a template's z is read-only: one pass, with 2 / r folded in
        dS = z * ((2.0 / self.support.radius) * slope)[:, None]
        return TrialSample(spec, hs, points, dist, *self._scaled(f, dS))

    def scaled(self, factor: float) -> ScalarField:
        """factor * this bump, a bump that still reads the ball rule's local coordinates."""
        factor = float(factor)
        return _Bump(self.support, f"{factor!r}*{self.label}", self._factors + (factor,))


def boundary_bump_spec(hs: HalfSpace, radius: float) -> BumpSpec:
    """Bump centered on the half-space boundary point closest to the origin.

    Centering on the boundary (rather than tangentially inside) makes the
    truncated profile charge the full singular range of the distance, which
    is what the sharpness probe needs: trials supported away from the
    boundary cannot push the quotient down to the sharp constant.
    """
    center = hs.nu * hs.d
    return BumpSpec(center=tuple(center), radius=radius)


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
    until the whole support ball clears the boundary by ``clearance``
    (at 0 a ball may touch it, where the bump is flat); the Philox stream
    makes the family a pure function of the seed.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if not clearance >= 0.0:
        raise ValueError(f"clearance must be >= 0, got {clearance!r}")
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


def power_weighted_sample(sample: TrialSample, a: float) -> TrialSample:
    """The sample of dist^a * u at the points of a sample of u, sharing its dist, P and W.

    Its ``hgrad`` is dist^a (grad_H u + a (u / dist) P), dist^a times the
    B of ``sample.horizontal_split(-a)``: no Euclidean gradient is formed.
    Both are 0.0 where dist <= 0.  It is the view through which each row
    of :func:`~strathardy.experiments.sharpness_grid` reads the sample of
    its cutoff.
    """
    d = sample.dist
    with np.errstate(divide="ignore", invalid="ignore"):  # at d <= 0: zeroed below
        da = d**a
        u, hgrad = da * sample.u, sample.horizontal_split(-a)[1]
        hgrad *= da[:, None]
    inside = d > 0.0
    if not inside.all():  # at quadrature nodes every d > 0: nothing to mask
        u, hgrad = np.where(inside, u, 0.0), np.where(inside[:, None], hgrad, 0.0)
    return sample.with_trial(u, hgrad)


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
            raise Refusal("p must exceed 1")
        if self.eps <= 0:
            raise Refusal("eps must be positive")

    @property
    def exponent(self) -> float:
        """alpha = (p-1)/p + eps, the power of the distance."""
        return (self.p - 1.0) / self.p + self.eps

    def label(self) -> str:
        return f"sharpness(p={float(self.p)!r},eps={float(self.eps)!r},{self.cutoff.label()})"
