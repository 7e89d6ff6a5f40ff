"""Quadrature over coordinate boxes clipped to a half-space.

One method, ``boundary-graded``, builds a rule record (nodes, their
boundary distances and weights, and on its Monte Carlo branch the line
of each node), and one function evaluates it.

The box rule integrates along the half-space normal with the
substitution dist = s**m (grading exponent m), which turns integrable
boundary singularities dist**g, g > -1, into something Gauss rules can
handle.  When the box touches the boundary the s-axis additionally uses
composite Gauss panels graded geometrically toward s = 0, because a
single Gauss rule cannot absorb the leftover algebraic singularity at
strongly negative g.  Accuracy degrades as g approaches -1 (the integral
itself blows up); the property tests pin g in [-0.9, 3].  Transverse
directions use a tensor Gauss rule up to 4 axes and deterministic-seeded
Monte Carlo above that: Philox streams keyed by the seed and the chunk
index in the ``streams.MONTE_CARLO`` key domain, over fixed-size chunks,
so results are reproducible bit for bit however the host schedules work.

Given the support of a round bump (a ``BumpSupport`` of powers 2) whose
closed ball lies inside the box and strictly inside the half-space, the
method takes a ball rule instead: nodes c + r rho w about the bump's
centre c, rho by Gauss-Legendre on (0, 1) with weight rho**(n-1) r**n, w
by a rule on the sphere (Stroud 1971), at the resolutions of
``_ball_resolution``.  The bump is radial, so its essential singularity
at the ball's edge meets only the radial rule.  Up to 5 dimensions the
sphere takes a product Gauss rule (the trapezoid rule on the circle,
Gauss-Jacobi from Golub-Welsch on each polar angle).  A product rule
grows as order**(n-1), so from 6 dimensions on the sphere takes Stroud's
fully symmetric rule of degree 5 (2n + 2**n directions) from 16 points
per axis, against degree 3 (the 2n directions +-e_i) on the companion;
below 16, and where the ball rule would have more nodes than
``sample_count`` (past 13 dimensions at the default), the box stays on
the graded rule.

Every rule carries each built node's boundary distance: dist = s**m on
the box rule, exact however the node's coordinates round, and
``hs.distance`` of the node on the ball rule.  A rule holds only the
nodes it evaluates, those with dist > 0 and, given a trial ``(spec, u)``,
inside ``u.support``: the ball rule has no others, and the box rule
builds only the nodes in the support's chord through their line along
the normal axis (``u.support.chord``, see
:class:`~strathardy.calculus.ScalarField`), on the lines that reach into
the half-space.  A chord may be a little wider than the support; the
integrands are 0.0 in that margin.

A deterministic rule (the ball rule, or the box rule with at most 4
transverse axes) reports as stderr its gap to its companion: the same
builder at half the points per axis (at least 2: ``points_per_axis`` is
at least 4), half the panel order on graded panels, and on the ball rule
half the radial nodes and sphere order, sphere degree 3 from 6
dimensions on.  One node set holds the rule's nodes, then its
companion's.  A Monte Carlo rule has no companion and reports the spread
of its sums over its lines, 0.0 on a line that holds no node.  Each
integrand is called on one :class:`~strathardy.calculus.TrialSample` of
each block of at most 2**14 nodes, cut from the start of the rule's
nodes and of its companion's (one block for both where they fit); with a
trial it holds u and grad u (``hgrad`` alone on a derived sample),
shared by all integrands, each summed before the next is called.  So
memory is the rule's arrays and one block's sample; a part of several
blocks (the heisenberg:2 ball rule's, say) moves in its last bits.

The ball rule hands the sample its nodes' local coordinates, (z, S) of
its unit-ball template, with z = (x - c) / r and S = |z|^2 summed once
per template, so a bump about c is evaluated from them and never works
them back out of the rounded nodes (see
:func:`~strathardy.calculus.sample_trial`).  Every rule stores its nodes
column-major.  The ball rule caches up to 16 unit-ball templates (a rule
and its companion) of at most 4 MiB each (``_BALL_CACHE_BYTES``: nodes, S
and weights): at 16 points per axis those up to 10 dimensions.

``evaluations`` in the returned estimate counts the nodes considered,
that is the nodes of the full rule, built or not (the ball rule's own
nodes on the ball rule).  A non-finite integrand value raises
IntegrationError naming the offending point.  No rule considers more
than 2e7 nodes (a companion is counted on its own): the count is worked
out before anything is allocated, and a larger request raises
NodeBudgetError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .calculus import HalfSpace, ScalarField, sample_trial
from .groups import GroupSpec
from .streams import MONTE_CARLO, philox_chunks
from .trials import BumpSupport

__all__ = [
    "QuadConfig",
    "IntegralEstimate",
    "IntegrationError",
    "NodeBudgetError",
    "integrate_many",
]

_CHUNK = 1 << 16
_PANEL_RATIO = 0.5
_PANEL_ORDER = 8
_EVAL_CHUNK = 1 << 14
_NODE_BUDGET = 20_000_000
# relative slack of a chord's distance range against rounding (see _s_window)
_WINDOW_MARGIN = 1e-12
# relative clearance below which a ball counts as touching the boundary
_BALL_MARGIN = 1e-12


@dataclass(frozen=True)
class QuadConfig:
    """Resolution knobs of the boundary-graded rule.

    ``points_per_axis`` (at least 4) drives the deterministic rules,
    ``sample_count`` the Monte Carlo branch and the size cap of the ball
    rule above 5 dimensions; ``grading_exponent`` is the m in dist = s**m.
    """

    points_per_axis: int = 16
    sample_count: int = 200_000
    seed: int = 42
    grading_exponent: float = 4.0

    def __post_init__(self):
        # the coarse companion takes half as many, and needs 2 of its own
        if self.points_per_axis < 4:
            raise ValueError(f"points_per_axis must be >= 4, got {self.points_per_axis}")
        if self.sample_count < 16:
            raise ValueError("sample_count must be >= 16")
        if self.grading_exponent < 1.0:
            raise ValueError("grading_exponent must be >= 1")


@dataclass(frozen=True)
class IntegralEstimate:
    value: float
    stderr: float
    evaluations: int


class IntegrationError(ValueError):
    """Raised when integrand ``index`` of a call returns a non-finite value at node ``point``."""

    def __init__(self, message: str, point: np.ndarray | None = None, index: int | None = None):
        super().__init__(message)
        self.point, self.index = point, index


class NodeBudgetError(ValueError):
    """Raised before allocation when a node set would exceed the node budget."""


def _check_budget(count: int, rule: str) -> None:
    if count > _NODE_BUDGET:
        raise NodeBudgetError(
            f"{rule} would build {count} nodes, more than the budget of {_NODE_BUDGET}; "
            "lower points_per_axis or sample_count"
        )


@lru_cache(maxsize=64)
def _gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


@lru_cache(maxsize=1)
def _philox_uniform(seed: int, count: int, dim: int) -> np.ndarray:
    """Uniform (count, dim) samples from fixed-size Philox chunks, read-only.

    Chunk c uses the key of stream c in the ``MONTE_CARLO`` domain
    (:func:`~strathardy.streams.philox_key`); consumers always read chunks
    in index order, so the stream does not depend on worker scheduling.
    The last draw is kept: every trial of a command draws the same one.
    """
    rows = max(1, _CHUNK // max(1, dim))
    chunks = [gen.random((take, dim)) for gen, take in philox_chunks(seed, count, rows, MONTE_CARLO)]
    out = np.concatenate(chunks, axis=0) if len(chunks) > 1 else chunks[0]
    out.flags.writeable = False
    return out


class _Rule(NamedTuple):
    """The nodes a rule evaluates, column-major, with their boundary distances and weights.

    Every node has dist > 0; the full rule has ``size`` nodes, built or
    not, which is what ``evaluations`` counts.
    A deterministic rule holds its ``split`` nodes, then those of its
    companion (a rule on the same box from the same builder at half the
    points per axis), and its stderr is the gap between the two.  The box
    rule's Monte Carlo branch has no companion (``split`` None): its
    stderr is the spread of its sums over the ``lines`` lines of the full
    rule.  ``line`` numbers each node's line among the lines that hold
    nodes, from 0; the others sum to 0.0.  ``local`` is the ball rule's
    (z, S) of each node, its unit-ball offset z (x = c + r z), column-major
    and read-only, and S = |z|^2; the box rule has none.
    """

    points: np.ndarray
    dist: np.ndarray
    weights: np.ndarray
    size: int
    split: int | None = None
    line: np.ndarray | None = None
    lines: int = 0
    local: tuple[np.ndarray, np.ndarray] | None = None
    coarse = None  # the companion shares the rule's arrays


def _tensor_product(box: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre nodes (K, n) and weights (K,) over ``box``, ``order`` per axis."""
    x, w = _gauss(order)
    half = 0.5 * (box[:, 1] - box[:, 0])
    grids = np.meshgrid(*(0.5 * (box[:, 0] + box[:, 1])[:, None] + half[:, None] * x), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    weights = np.ones(pts.shape[0])
    for g in np.meshgrid(*(half[:, None] * w), indexing="ij"):
        weights = weights * g.reshape(-1)
    return pts, weights


def _graded_s_axis(lo, hi, m, ppa, panels, panel_order):
    """Per-row s nodes and weights for the substitution dist = s**m.

    lo, hi: (T,) distance ranges, 0 <= lo < hi.  Returns s (T, S), ws (T, S).
    """
    s_lo = lo ** (1.0 / m)
    s_hi = hi ** (1.0 / m)
    if panels is None:
        x, w = _gauss(2 * ppa)
        mid = 0.5 * (s_lo + s_hi)
        half = 0.5 * (s_hi - s_lo)
        s = mid[:, None] + half[:, None] * x[None, :]
        ws = half[:, None] * w[None, :]
    else:
        # composite Gauss on panels graded geometrically toward s_lo
        ratios = np.concatenate([[0.0], _PANEL_RATIO ** np.arange(panels, -1, -1.0)])
        edges = s_lo[:, None] + (s_hi - s_lo)[:, None] * ratios[None, :]  # (T, panels+2)
        x, w = _gauss(panel_order)
        mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
        half = 0.5 * (edges[:, 1:] - edges[:, :-1])
        cols = (panels + 1) * panel_order
        s = (mid[:, :, None] + half[:, :, None] * x[None, None, :]).reshape(lo.shape[0], cols)
        ws = (half[:, :, None] * w[None, None, :]).reshape(lo.shape[0], cols)
    return s, ws


def _s_window(chord_lo, chord_hi, nuj, c, m):
    """The s range, per line, of the nodes whose coordinate along the normal
    axis, x = (s**m - c) / nuj, lies in [chord_lo, chord_hi].

    The distance range is widened by a relative margin that dwarfs the
    rounding of s**m, of x and of this mapping (the root's own rounding
    included), so that no node of the chord falls outside.
    """
    ends = np.stack([nuj * chord_lo + c, nuj * chord_hi + c])
    pad = _WINDOW_MARGIN * (np.abs(nuj) * (np.abs(chord_lo) + np.abs(chord_hi)) + np.abs(c))
    d_lo = np.maximum(ends.min(axis=0) - pad, 0.0)
    d_hi = np.maximum(ends.max(axis=0) + pad, 0.0)
    return d_lo ** (1.0 / m), d_hi ** (1.0 / m)


def _build_boundary_graded(box, hs, cfg, support) -> _Rule:
    n = box.shape[0]
    nu = hs.nu
    m = cfg.grading_exponent
    jstar = int(np.argmax(np.abs(nu)))
    nuj = nu[jstar]
    trans_axes = [j for j in range(n) if j != jstar]

    # global reach of the affine distance over the box decides the s-rule
    corner_min = float(np.sum(np.minimum(nu * box[:, 0], nu * box[:, 1])) - hs.d)
    corner_max = float(np.sum(np.maximum(nu * box[:, 0], nu * box[:, 1])) - hs.d)
    touching = corner_min <= 1e-12 * max(1.0, abs(corner_max))
    deterministic = len(trans_axes) <= 4
    # the rule, then on a deterministic rule its companion at half the points and panel order
    levels = [(cfg.points_per_axis, _PANEL_ORDER), (cfg.points_per_axis // 2, _PANEL_ORDER // 2)]
    grids, sizes = [], []
    for ppa, order in levels[: 2 if deterministic else 1]:
        panels = min(60, max(8, (5 * ppa) // 2)) if touching else None
        s_count = (panels + 1) * order if touching else 2 * ppa
        t_count = ppa ** len(trans_axes) if deterministic else max(16, cfg.sample_count // s_count)
        sizes.append(t_count * s_count)
        _check_budget(sizes[-1], f"boundary-graded with {ppa} points per axis in {n} dimensions")
        grids.append((ppa, panels, order, t_count))

    def nodes(ppa, panels, order, t_count):
        """The lines' transverse nodes, weights and offsets c; each node's line, s, s-weight and dist."""
        if not trans_axes:
            trans_pts, trans_w = np.zeros((1, 0)), np.ones(1)
        elif deterministic:
            trans_pts, trans_w = _tensor_product(box[trans_axes], ppa)
        else:
            u = _philox_uniform(cfg.seed, t_count, len(trans_axes))
            sub = box[trans_axes]
            trans_pts = sub[:, 0] + u * (sub[:, 1] - sub[:, 0])
            trans_w = np.full(t_count, float(np.prod(sub[:, 1] - sub[:, 0])) / t_count)

        # distance range along axis jstar for each transverse node
        c = trans_pts @ nu[trans_axes] - hs.d
        da = nuj * box[jstar, 0] + c
        db = nuj * box[jstar, 1] + c
        lo = np.maximum(0.0, np.minimum(da, db))
        hi = np.maximum(da, db)
        keep = hi > np.maximum(lo, 0.0)

        # build only the lines that reach into the half-space and meet the
        # support, and on them only the nodes in the support's chord; the
        # others would carry zero weight or lie outside the support
        if support is not None:
            line_pts = np.zeros((t_count, n), order="F")
            line_pts[:, trans_axes] = trans_pts
            chord_lo, chord_hi = support.chord(line_pts, jstar)
            keep &= chord_lo <= chord_hi
        lines = np.flatnonzero(keep)
        trans_pts, trans_w, c, lo, hi = (a[lines] for a in (trans_pts, trans_w, c, lo, hi))

        s, ws = _graded_s_axis(lo, hi, m, ppa, panels, order)
        if support is None:
            rows, cols = np.nonzero(np.ones(s.shape, dtype=bool))
        else:
            s_lo, s_hi = _s_window(chord_lo[lines], chord_hi[lines], nuj, c, m)
            rows, cols = np.nonzero((s >= s_lo[:, None]) & (s <= s_hi[:, None]))
        s, ws = s[rows, cols], ws[rows, cols]
        dist = s**m
        live = np.flatnonzero(dist > 0.0)  # s**m underflows at the smallest s
        rows, s, ws, dist = rows[live], s[live], ws[live], dist[live]
        return trans_pts, trans_w, c, rows, s, ws, dist

    # the companion's nodes first, so that they do not stack on the rule's temporaries
    parts = [nodes(*grid) for grid in grids[::-1]][::-1]
    split = parts[0][3].size
    total = sum(part[3].size for part in parts)
    pts, dist, weights = np.empty((total, n), order="F"), np.empty(total), np.empty(total)
    for (trans_pts, trans_w, c, rows, s, ws, part_dist), at in zip(parts, (slice(0, split), slice(split, None))):
        pts[at, trans_axes] = trans_pts[rows]
        pts[at, jstar] = (part_dist - c[rows]) / nuj
        dist[at] = part_dist
        np.multiply(trans_w[rows], ws, out=weights[at])
        weights[at] *= (m * s ** (m - 1.0)) / abs(nuj)
    if deterministic:
        return _Rule(pts, dist, weights, sizes[0], split)
    # a Monte Carlo rule's lines, numbered among those built
    return _Rule(pts, dist, weights, sizes[0], line=parts[0][3], lines=grids[0][3])


def _gauss_jacobi(order: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights for the weight (1 - x^2)^a on (-1, 1), a >= 0.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the orthogonal polynomials of that weight, whose
    recurrence coefficients are b_k = k (k + 2a) / ((2k + 2a)^2 - 1), and
    each weight is the weight's total mass times the squared first
    component of its eigenvector.  The weight is even, so the rule is
    symmetrized about 0.
    """
    k = np.arange(1.0, order)
    b = k * (k + 2.0 * a) / ((2.0 * k + 2.0 * a) ** 2 - 1.0)
    x, vectors = np.linalg.eigh(np.diag(np.sqrt(b), -1))
    mass = math.exp(math.lgamma(0.5) + math.lgamma(a + 1.0) - math.lgamma(a + 1.5))
    w = mass * vectors[0] ** 2
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def _sphere_rule(dim: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """A product Gauss rule on the unit sphere S^(dim-1): directions
    (K, dim) and weights (K,), exact on polynomials of degree up to
    2 order - 1.

    Hyperspherical coordinates: S^1 takes the trapezoid rule with 2 order
    angles on the last two axes.  S^(k-1) is built from S^(k-2) by a new
    first coordinate c, the others sqrt(1 - c^2) times a direction of
    S^(k-2), with the surface weight (1 - c^2)^((k-3)/2) on c taken by
    Gauss-Jacobi with ``order`` nodes.  S^0 is {-1, 1}.
    """
    if dim == 1:
        return np.array([[-1.0], [1.0]]), np.ones(2)
    angle = np.pi * np.arange(2 * order) / order
    dirs = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    w = np.full(2 * order, np.pi / order)
    for k in range(3, dim + 1):
        c, wc = _gauss_jacobi(order, 0.5 * (k - 3))
        ring = np.sqrt(1.0 - c * c)[:, None, None] * dirs[None, :, :]
        first = np.broadcast_to(c[:, None, None], (order, w.size, 1))
        dirs = np.concatenate([first, ring], axis=2).reshape(-1, k)
        w = (wc[:, None] * w[None, :]).reshape(-1)
    return dirs, w


def _symmetric_sphere_rule(dim: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """A fully symmetric rule on the unit sphere S^(dim-1), exact on
    polynomials of degree up to ``degree``, 3 or 5: directions (K, dim) and
    weights (K,), all positive (Stroud 1971, rules U_n 3-1 and U_n 5-2).

    With |S| the sphere's area, degree 3 puts |S| / (2 dim) on each of the
    2 dim directions +-e_i.  Degree 5 puts |S| / (dim (dim + 2)) on each
    +-e_i and |S| dim / (2^dim (dim + 2)) on each of the 2^dim directions
    (+-1, ..., +-1) / sqrt(dim).
    """
    area = 2.0 * math.pi ** (dim / 2) / math.gamma(dim / 2)
    axes = np.concatenate([np.eye(dim), -np.eye(dim)])
    if degree == 3:
        return axes, np.full(2 * dim, area / (2 * dim))
    signs = 1.0 - 2.0 * ((np.arange(2**dim)[:, None] >> np.arange(dim)) & 1)
    dirs = np.concatenate([axes, signs / math.sqrt(dim)])
    w = np.concatenate(
        [np.full(2 * dim, area / (dim * (dim + 2))), np.full(2**dim, area * dim / (2**dim * (dim + 2)))]
    )
    return dirs, w


def _ball_resolution(dim: int, ppa: int, companion: bool = False) -> tuple[int, int]:
    """(radial nodes, sphere) of the ball rule at ``ppa`` points per axis:
    sphere is the order of :func:`_sphere_rule` up to 5 dimensions and the
    degree of :func:`_symmetric_sphere_rule` above.  At 16 that is (24, 8)
    up to 3 dimensions and (24, 6) in 4 and 5, halved with it; and
    (24, degree 5) in 6 or more, degree 3 below 16 and on every coarse
    companion, whose degree must stay below its fine rule's for the stderr
    to see the angular error."""
    radial = max(2, (3 * ppa) // 2)
    if dim >= 6:
        return radial, 5 if ppa >= 16 and not companion else 3
    sphere = ppa if dim <= 3 else (3 * ppa) // 4
    return radial, max(1, sphere // 2)


def _ball_size(dim: int, radial: int, sphere: int) -> int:
    """The node count of the ball rule of :func:`_ball_resolution`."""
    return radial * (2 * sphere ** (dim - 1) if dim <= 5 else 2 * dim + (2**dim if sphere == 5 else 0))


def _takes_ball(box, hs, support, cfg: QuadConfig) -> bool:
    """Whether the boundary-graded rule integrates over ``support`` on the
    ball rule: a bump of square powers, a round ball, inside ``box`` and
    with its closure strictly inside the half-space.  A ball whose
    clearance <c, nu> - d - r lies within ``_BALL_MARGIN`` of its terms
    counts as touching: a centre placed at distance r clears the boundary
    by a rounding error of either sign.

    In 6 or more dimensions the ball rule is taken only where its sphere
    degree exceeds its coarse companion's degree 3 (from 16 points per
    axis), and where it has at most ``cfg.sample_count`` nodes, the count
    of the Monte Carlo branch it replaces (up to 13 dimensions at the
    default)."""
    if not isinstance(support, BumpSupport):
        return False
    c, r = support.center, support.radius
    n = c.size
    if n >= 6:
        radial, degree = _ball_resolution(n, cfg.points_per_axis)
        if degree == 3 or _ball_size(n, radial, degree) > cfg.sample_count:
            return False
    height = float(c @ hs.nu)
    return bool(
        np.all(support.powers == 2.0)
        and height - hs.d - r > _BALL_MARGIN * (abs(height) + abs(hs.d) + r)
        and np.all(box[:, 0] <= c - r)
        and np.all(c + r <= box[:, 1])
    )


def _unit_ball(dim: int, parts: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The spherical-radial rule on the unit ball at each of ``parts``, the
    (radial nodes, sphere) of a rule and its companion, one after the other:
    nodes z = rho w, (K, dim) column-major, rho by Gauss-Legendre on (0, 1)
    with weight rho^(dim-1), w by :func:`_sphere_rule` up to 5 dimensions
    and :func:`_symmetric_sphere_rule` above; S = |z|^2 (K,), its terms
    z_i * z_i added in axis order as ``BumpSupport`` adds them; their
    weights (K,); and the node count of the rule.  Read-only, as a cached
    rule is shared."""
    rules = []
    for radial, sphere in parts:
        dirs, w_dir = _sphere_rule(dim, sphere) if dim <= 5 else _symmetric_sphere_rule(dim, sphere)
        x, w = _gauss(radial)
        rho = 0.5 * (1.0 + x)
        rules.append((rho, 0.5 * w * rho ** (dim - 1), dirs, w_dir))
    sizes = [rho.size * w_dir.size for rho, _, _, w_dir in rules]
    nodes, weights = np.empty((sum(sizes), dim), order="F"), np.empty(sum(sizes))
    for (rho, w_rho, dirs, w_dir), at in zip(rules, (slice(0, sizes[0]), slice(sizes[0], None))):
        nodes[at] = (rho[:, None, None] * dirs[None, :, :]).reshape(-1, dim)
        weights[at] = (w_rho[:, None] * w_dir[None, :]).reshape(-1)
    squares = np.zeros(sum(sizes))
    for col in nodes.T:
        squares += col * col
    nodes.flags.writeable = squares.flags.writeable = weights.flags.writeable = False
    return nodes, squares, weights, sizes[0]


# the cache holds at most 16 x 4 MiB (see the module docstring)
_BALL_CACHE_BYTES = 1 << 22
_cached_unit_ball = lru_cache(maxsize=16)(_unit_ball)


def _build_ball(hs, cfg, support) -> _Rule:
    """The unit ball rule and its companion moved onto the support ball,
    c + r z, with weights times r^n, and with the template's (z, S) as the
    nodes' local coordinates.  The bump is radial about c, so its
    essential singularity at the edge meets only the radial rule."""
    n = support.center.size
    ppa = cfg.points_per_axis
    parts = (_ball_resolution(n, ppa), _ball_resolution(n, ppa // 2, companion=True))
    counts = [_ball_size(n, *part) for part in parts]
    for points, count in zip((ppa, ppa // 2), counts):
        _check_budget(count, f"the ball rule with {points} points per axis in {n} dimensions")
    # nodes, S and weights
    cached = sum(counts) * (n + 2) * 8 <= _BALL_CACHE_BYTES
    nodes, squares, weights, split = (_cached_unit_ball if cached else _unit_ball)(n, parts)
    pts = nodes * support.radius
    pts += support.center
    dist = hs.distance(pts)
    weights = weights * support.radius**n
    # only rounding in <x, nu> - d, far from the origin, could reach 0
    if not np.all(dist > 0.0):
        keep = np.flatnonzero(dist > 0.0)
        split = int(np.searchsorted(keep, split))
        pts, nodes = np.asfortranarray(pts[keep]), np.asfortranarray(nodes[keep])
        dist, weights, squares = dist[keep], weights[keep], squares[keep]
    return _Rule(pts, dist, weights, counts[0], split, local=(nodes, squares))


def _build_nodes(box, hs, cfg, support) -> _Rule:
    """The ball rule where ``support`` takes it, else the box rule, holding
    only the nodes with dist > 0 that ``support`` (None: no support known)
    may hold."""
    if _takes_ball(box, hs, support, cfg):
        return _build_ball(hs, cfg, support)
    # the weights of a box past the float range overflow; what they sum to
    # is not finite, which the runners report, so numpy's warning only repeats it
    with np.errstate(over="ignore"):
        return _build_boundary_graded(box, hs, cfg, support)


def _sums(fs, rule: _Rule, sample) -> np.ndarray:
    """The sum of weights * values of each integrand over the rule's own
    nodes, then over its companion's, (2, len(fs)) ((1, len(fs)) without a
    split); for a Monte Carlo rule its sums over each line numbered in
    ``rule.line`` instead, (len(fs), rule.line.max() + 1).

    The integrands run on ``sample(nodes, dist, local=local)`` of each
    block of at most ``_EVAL_CHUNK`` nodes (see the module docstring),
    ``local`` the same rows of ``rule.local`` (None on the box rule), and
    each block's sums are added to its part's.  A non-finite value raises
    IntegrationError with ``index`` its integrand's place in ``fs``."""
    line = rule.line
    ends = [len(rule.points)] if rule.split is None else [rule.split, len(rule.points)]
    sums = np.zeros((len(ends), len(fs)) if line is None else (len(fs), int(line.max(initial=-1)) + 1))
    bounds = enumerate(zip([0] + ends, ends))
    pieces = [(part, a, min(a + _EVAL_CHUNK, hi)) for part, (lo, hi) in bounds for a in range(lo, hi, _EVAL_CHUNK)]
    for window in [pieces] if 0 < len(rule.points) <= _EVAL_CHUNK else [[piece] for piece in pieces]:
        first, last = window[0][1], window[-1][2]
        # a non-finite value raises IntegrationError; numpy's warning about
        # the operation that made it would only repeat that
        with np.errstate(all="ignore"):
            local = None if rule.local is None else tuple(a[first:last] for a in rule.local)
            arg = sample(rule.points[first:last], rule.dist[first:last], local=local)
            for i, f in enumerate(fs):
                values = np.asarray(f(arg), dtype=float)
                for part, lo, hi in window:
                    points, weights, v = rule.points[lo:hi], rule.weights[lo:hi], values[lo - first : hi - first]
                    if line is None:
                        # a non-finite value makes the sum non-finite; finite
                        # values that overflow it are no error
                        total = np.sum(weights * v)
                        if not np.isfinite(total):
                            _check_finite(v, points, i)
                        sums[part, i] += total
                    else:
                        _check_finite(v, points, i)
                        sums[i] += np.bincount(line[lo:hi], weights=weights * v, minlength=sums.shape[1])
    return sums


def _check_finite(v, points, index: int) -> None:
    """Raise IntegrationError naming integrand ``index`` and the first of ``points`` where v is not finite."""
    bad = ~np.isfinite(v)
    if np.any(bad):
        where = points[np.flatnonzero(bad)[0]]
        raise IntegrationError(f"integrand returned a non-finite value at point {where.tolist()}", where, index)


def integrate_many(
    fs: Sequence[Callable],
    box,
    hs: HalfSpace,
    cfg: QuadConfig | None = None,
    trial: tuple[GroupSpec, ScalarField] | None = None,
) -> list[IntegralEstimate]:
    """Integrate several integrands over box intersect {dist > 0} on one node set.

    Each integrand maps a :class:`~strathardy.calculus.TrialSample` of a
    block of M <= 16,384 nodes to (M,) values.  The sample's ``dist`` is the
    distance the rule carries for each node, exact on the boundary-graded
    rule.  Without ``trial`` the sample holds the nodes and their dist
    alone.  With ``trial = (spec, u)`` it is :func:`sample_trial` of u at
    the nodes (a sample derived from another's holds ``hgrad``, not
    ``grad``), each integrand must be exactly 0.0 wherever u and its
    gradient are, and it is called only at nodes inside ``u.support`` (all
    of them if it is None), or in the margin of a chord (see the module
    docstring).  Where the support takes the ball rule (a round bump
    inside the half-space; the module docstring gives the resolutions and
    dimensions), the estimates are the ball rule's.  Otherwise they equal
    those of the same integrands and u without its support up to the order
    of their float additions, and ``evaluations`` exactly.
    """
    cfg = cfg or QuadConfig()
    box = np.asarray(box, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValueError(f"box must be an (n, 2) array of [lo, hi] rows, got {box.shape}")
    if np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("box must have hi > lo on every axis")
    if box.shape[0] != hs.dim:
        raise ValueError(f"box has {box.shape[0]} axes, half-space has {hs.dim}")
    spec, u = (None, None) if trial is None else trial
    support = None if u is None else u.support
    sample = partial(sample_trial, spec, hs, u)
    rule = _build_nodes(box, hs, cfg, support)
    sums = _sums(fs, rule, sample)
    if rule.line is None:
        with np.errstate(invalid="ignore"):  # inf - inf: a nan stderr, which the runners report
            values, stderrs = sums[0], np.abs(sums[0] - sums[1])
    else:
        # the spread over all t >= 16 lines: those without a node add
        # (0 - mean)**2 each
        t = rule.lines
        values = sums.sum(axis=1)
        mean = values / t
        spread = np.sum((sums - mean[:, None]) ** 2, axis=1) + (t - sums.shape[1]) * mean**2
        stderrs = np.sqrt(t * spread / (t - 1))
    return [IntegralEstimate(float(v), float(e), rule.size) for v, e in zip(values, stderrs)]
