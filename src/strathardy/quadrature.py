"""Quadrature over coordinate boxes clipped to a half-space.

The one method, ``boundary-graded``, builds a rule record and one
function evaluates it.  Its box rule integrates along the half-space
normal with the substitution dist = s**m (grading exponent m), which
turns integrable boundary singularities dist**g, g > -1, into something
Gauss rules can handle.  When the box touches the boundary the s-axis
additionally uses composite Gauss panels graded geometrically toward
s = 0, because a single Gauss rule cannot absorb the leftover algebraic
singularity at strongly negative g.  Accuracy degrades as g approaches
-1 (the integral itself blows up); the property tests pin g in [-0.9, 3].
Transverse directions use a tensor Gauss rule up to 4 axes and seeded
Monte Carlo, reproducible bit for bit, above that (``_philox_uniform``).

Given the support of a bump, a ball, whose closure lies inside the box
and strictly inside the half-space (see ``_takes_ball``), the method
takes a ball rule instead: a spherical-radial rule about the bump's
centre, Gauss-Legendre in the radius and a rule on the sphere (Stroud
1971) at the resolutions of ``_ball_resolution``.  The bump is radial, so
its essential singularity at the ball's edge meets only the radial rule.

Every rule gives each node's boundary distance: dist = s**m on the box
rule, exact however the node's coordinates round, and ``hs.distance`` of
the node on the ball rule.  A rule evaluates only nodes with dist > 0
and, given a trial ``(spec, u)``, inside ``u.support``: the ball rule has
no others, and the box rule keeps only the nodes in the support's chord
through their line along the normal axis (``u.support.chord``), on the
lines that reach into the half-space.  The integrands are 0.0 in the
margin by which a chord may be wider than the support.

Each estimate carries its signed error replicates, and its stderr is
their norm.  A deterministic rule (the ball rule, or the box rule with at
most 4 transverse axes) has one replicate, fine - coarse: its sum less
its companion's, the same builder at half the resolution
(``_ball_resolution``; half the points per axis and panel order on the
box).  One node set holds the rule's nodes, then its companion's.  A
Monte Carlo rule has one replicate per line, the line's sum less the mean
over all t lines (a line that holds no node sums to 0.0), times
sqrt(t / (t - 1)): their norm is the spread of the sums.  The integrands
of a call share the rule, so their replicates pair up: the error of a
combination of integrals is the same combination of their replicates.
Each integrand is called on one :class:`~strathardy.calculus.TrialSample`
of each block of at most 2**14 nodes, cut from the start of the rule's
nodes and of its companion's (one block for both where they fit), shared
by all integrands, each summed before the next is called; a part of
several blocks moves in its last bits against one sum.

No rule holds its nodes; each places a block from compact data as it is
summed.  The ball rule holds their dist and its unit-ball template
(z, f, slope, weights): z = (x - c) / r, the bump's profile at S = |z|^2
(``bump_profile``) and the weights, placed as c + r z and weights times
r^n.  The box rule holds its kept lines and how many nodes each keeps,
and reruns the s rule, masks and fill on the lines a block touches, each
step per line, so a block holds the bits of the rule built whole.  The
ball rule's sample gets (z, f, slope) as local coordinates, so a bump
about c reads them, not the rounded nodes (see
:func:`~strathardy.calculus.sample_trial`).  Every rule places its nodes
column-major.  Up to 16 templates of at most 4 MiB, (n + 3) x 8 bytes a
node (``_BALL_CACHE_BYTES``), are cached: at 16 points per axis those up
to 10 dimensions.

``evaluations`` counts the nodes of the full rule, built or not (the
ball rule's own on the ball rule).  A non-finite integrand value raises
IntegrationError naming its point.  A rule or companion of more than 2e7
nodes raises NodeBudgetError before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .calculus import HalfSpace, ScalarField, _sum_squares, sample_trial
from .errors import Refusal
from .groups import GroupSpec
from .streams import MONTE_CARLO, philox_chunks
from .trials import BumpSupport, bump_profile

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
    """An integral's value, its signed error ``replicates`` and their norm
    ``stderr`` (see the module docstring), over a rule of ``evaluations`` nodes."""

    value: float
    stderr: float
    evaluations: int
    replicates: tuple[float, ...] = ()


class IntegrationError(Refusal):
    """Raised when integrand ``index`` of a call returns a non-finite value at node ``point``."""

    def __init__(self, message: str, point: np.ndarray | None = None, index: int | None = None):
        super().__init__(message)
        self.point, self.index = point, index


class NodeBudgetError(Refusal):
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


class _Lines(NamedTuple):
    """The kept lines along the normal axis of one part of the box rule, on
    the s ``grid`` (ppa, panels, order) of :func:`_graded_s_axis`: per line
    its transverse node and weight, the c of dist = nuj x + c, its dist
    range [lo, hi], the s window of the support's chord (None: no support),
    and in ``offsets`` the nodes kept before it, then the part's count."""

    grid: tuple[int, int | None, int]
    trans_pts: np.ndarray
    trans_w: np.ndarray
    c: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    window: tuple[np.ndarray, np.ndarray] | None
    offsets: np.ndarray

    def chunks(self, m: float, first: int, last: int):
        """(a, s, s-weights, kept mask) of lines a:a + step of first:last, at
        most ``_EVAL_CHUNK`` s nodes; each step is line by line, so any cut
        of the lines gives their bits of the whole grid."""
        ppa, panels, order = self.grid
        step = max(1, _EVAL_CHUNK // ((panels + 1) * order if panels else 2 * ppa))
        for a in range(first, last, step):
            cut = slice(a, min(a + step, last))
            s, ws = _graded_s_axis(self.lo[cut], self.hi[cut], m, *self.grid)
            kept = s**m > 0.0  # s**m underflows at the smallest s
            if self.window is not None:
                kept &= (s >= self.window[0][cut, None]) & (s <= self.window[1][cut, None])
            yield a, s, ws, kept


class _Rule(NamedTuple):
    """A rule, which holds only compact data of its ``count`` nodes:
    ``place(lo, hi)`` builds the points (column-major), dist (> 0),
    weights, local coordinates and line numbers of nodes lo:hi, and
    ``points``, ``dist``, ``weights``, ``local`` and ``line`` place all.

    The full rule has ``size`` nodes, built or not: ``evaluations`` counts
    them.  A deterministic rule places its ``split`` nodes, then its
    companion's.  The Monte Carlo branch has no companion (``split`` None)
    and ``lines`` lines, built or not: its stderr is the spread of its sums
    over them, each node numbered by its line among the kept ones, from 0,
    and ``held`` counting the kept ones up to the last that holds a node."""

    place: Callable[[int, int], tuple]
    count: int
    size: int
    split: int | None
    lines: int | None = None
    held: int = 0
    coarse = None  # the companion is placed with the rule

    points = property(lambda self: self.place(0, self.count)[0])
    dist = property(lambda self: self.place(0, self.count)[1])
    weights = property(lambda self: self.place(0, self.count)[2])
    local = property(lambda self: self.place(0, self.count)[3])
    line = property(lambda self: self.place(0, self.count)[4])


def _place_lines(parts: tuple[_Lines, ...], axis: int, nuj: float, m: float, lo: int, hi: int):
    """Nodes lo:hi of the box rule of ``parts``, each built from its line
    alone; line numbers where it has one part, on the Monte Carlo branch."""
    n = parts[0].trans_pts.shape[1] + 1
    trans_axes = [j for j in range(n) if j != axis]
    hi = min(hi, sum(int(part.offsets[-1]) for part in parts))
    points, dist, weights = np.empty((hi - lo, n), order="F"), np.empty(hi - lo), np.empty(hi - lo)
    line = np.empty(hi - lo, dtype=np.intp) if len(parts) == 1 else None
    at = start = 0
    for part in parts:
        offsets = part.offsets
        a, b, start = max(lo - start, 0), min(hi - start, int(offsets[-1])), start + int(offsets[-1])
        if a >= b:
            continue
        first = int(np.searchsorted(offsets, a, side="right")) - 1
        for g, s, ws, kept in part.chunks(m, first, int(np.searchsorted(offsets, b))):
            # the chunk's nodes are the part's from offsets[g]; keep those of a:b
            rows, cols = (i[max(a - offsets[g], 0) : b - offsets[g]] for i in np.nonzero(kept))
            s, ws, rows = s[rows, cols], ws[rows, cols], rows + g
            cut = slice(at, at + rows.size)
            dist[cut] = s**m
            points[cut, trans_axes] = part.trans_pts[rows]
            points[cut, axis] = (dist[cut] - part.c[rows]) / nuj
            np.multiply(part.trans_w[rows], ws, out=weights[cut])
            weights[cut] *= (m * s ** (m - 1.0)) / abs(nuj)
            if line is not None:
                line[cut] = rows
            at = cut.stop
    return points, dist, weights, None, line


def _place_ball(template, center, radius: float, dist, lo: int, hi: int):
    """Rows lo:hi of the unit-ball ``template`` (z, f, slope, weights) on
    the ball about ``center``: points c + r z, their ``dist`` and weights
    times r^n, with local coordinates (z, f, slope) and no line numbers."""
    z, f, slope, weights = (a[lo:hi] for a in template)
    points = z * radius
    points += center
    return points, dist[lo:hi], weights * radius ** z.shape[1], (z, f, slope), None


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
    axis, x = (s**m - c) / nuj, lies in [chord_lo, chord_hi], widened by a
    relative margin that dwarfs the rounding of s**m, of x and of this
    mapping (the root's included), so that no node of the chord falls outside."""
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

    # the kept lines: those that reach into the half-space and meet the support,
    # as the others would carry zero weight or lie outside it; on them only
    # the nodes in the support's chord are kept
    parts = []
    for ppa, panels, order, t_count in grids:
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
        if support is not None:
            line_pts = np.zeros((t_count, n), order="F")
            line_pts[:, trans_axes] = trans_pts
            chord_lo, chord_hi = support.chord(line_pts, jstar)
            keep &= chord_lo <= chord_hi
        lines = np.flatnonzero(keep)
        trans_pts, trans_w, c, lo, hi = (a[lines] for a in (trans_pts, trans_w, c, lo, hi))
        window = None if support is None else _s_window(chord_lo[lines], chord_hi[lines], nuj, c, m)
        # each line's kept nodes are counted; ``_place_lines`` builds them
        offsets = np.zeros(lines.size + 1, dtype=np.intp)
        parts.append(_Lines((ppa, panels, order), trans_pts, trans_w, c, lo, hi, window, offsets))
        for a, _, _, kept in parts[-1].chunks(m, 0, lines.size):
            offsets[a + 1 : a + 1 + len(kept)] = np.count_nonzero(kept, axis=1)
        np.cumsum(offsets, out=offsets)

    place, count = partial(_place_lines, tuple(parts), jstar, nuj, m), sum(int(p.offsets[-1]) for p in parts)
    if deterministic:
        return _Rule(place, count, sizes[0], int(parts[0].offsets[-1]))
    # the Monte Carlo branch's kept lines up to the last that holds a node
    return _Rule(place, count, sizes[0], None, grids[0][3], int(np.searchsorted(parts[0].offsets, count)))


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
    up to 3 dimensions, (24, 6) in 4 and 5, halved with it, and (24, degree
    5) in 6 or more, degree 3 below 16 and on every companion.  Wherever the
    ball rule is taken the companion's order or degree is strictly below
    the fine rule's, so that the stderr sees the angular error: up to 5
    dimensions by a fine order of at least 2, above by :func:`_takes_ball`."""
    radial = max(2, (3 * ppa) // 2)
    if dim >= 6:
        return radial, 5 if ppa >= 16 and not companion else 3
    sphere = ppa if dim <= 3 else (3 * ppa) // 4
    return radial, max(1 if companion else 2, sphere // 2)


def _ball_size(dim: int, radial: int, sphere: int) -> int:
    """The node count of the ball rule of :func:`_ball_resolution`."""
    return radial * (2 * sphere ** (dim - 1) if dim <= 5 else 2 * dim + (2**dim if sphere == 5 else 0))


def _takes_ball(box, hs, support, cfg: QuadConfig) -> bool:
    """Whether ``support`` takes the ball rule: a bump's ball, inside
    ``box`` and with its closure strictly inside the half-space.  A
    clearance <c, nu> - d - r within ``_BALL_MARGIN`` of its terms counts
    as touching: a centre placed at distance r clears the boundary by a
    rounding error of either sign.  In 6 or more dimensions the ball rule
    is taken only where its sphere degree exceeds its companion's 3 (from
    16 points per axis) and where it has at most ``cfg.sample_count``
    nodes, those of the Monte Carlo branch it replaces (up to 13
    dimensions at the default)."""
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
        height - hs.d - r > _BALL_MARGIN * (abs(height) + abs(hs.d) + r)
        and np.all(box[:, 0] <= c - r)
        and np.all(c + r <= box[:, 1])
    )


def _unit_ball(dim: int, parts: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, ...]:
    """The spherical-radial rule on the unit ball at each of ``parts``, the
    (radial nodes, sphere) of a rule and its companion, one after the other:
    nodes z = rho w, (K, dim) column-major, rho by Gauss-Legendre on (0, 1)
    with weight rho^(dim-1), w by :func:`_sphere_rule` up to 5 dimensions
    and :func:`_symmetric_sphere_rule` above; f and slope at S = |z|^2, S
    adding z_i * z_i in axis order as ``BumpSupport`` does; the weights;
    and the rule's node count.  Read-only, as a cached rule is shared."""
    shells, sizes = [], []
    for radial, sphere in parts:
        dirs, w_dir = _sphere_rule(dim, sphere) if dim <= 5 else _symmetric_sphere_rule(dim, sphere)
        x, w = _gauss(radial)
        rho = 0.5 * (1.0 + x)
        shells += [(r, w_r, dirs, w_dir) for r, w_r in zip(rho, 0.5 * w * rho ** (dim - 1))]
        sizes.append(radial * w_dir.size)
    nodes, (f, slope, weights) = np.empty((sum(sizes), dim), order="F"), np.empty((3, sum(sizes)))
    # one radial shell at a time, in place: no product of a whole part is formed
    at = 0
    for r, w_r, dirs, w_dir in shells:
        shell = slice(at, at + w_dir.size)
        nodes[shell] = r * dirs
        weights[shell] = w_r * w_dir
        f[shell], slope[shell] = bump_profile(_sum_squares(nodes[shell].T, w_dir.size))
        at = shell.stop
    nodes.flags.writeable = f.flags.writeable = slope.flags.writeable = weights.flags.writeable = False
    return nodes, f, slope, weights, sizes[0]


# the cache holds at most 16 x 4 MiB (see the module docstring)
_BALL_CACHE_BYTES = 1 << 22
_cached_unit_ball = lru_cache(maxsize=16)(_unit_ball)


def _build_ball(hs, cfg, support) -> _Rule:
    """The unit ball rule and its companion placed on the support ball
    (see :func:`_place_ball`).  The bump is radial about c, so its
    essential singularity at the edge meets only the radial rule."""
    n = support.center.size
    ppa = cfg.points_per_axis
    parts = (_ball_resolution(n, ppa), _ball_resolution(n, ppa // 2, companion=True))
    counts = [_ball_size(n, *part) for part in parts]
    for points, count in zip((ppa, ppa // 2), counts):
        _check_budget(count, f"the ball rule with {points} points per axis in {n} dimensions")
    cached = sum(counts) * (n + 3) * 8 <= _BALL_CACHE_BYTES  # z, f, slope and weights
    nodes, f, slope, weights, split = (_cached_unit_ball if cached else _unit_ball)(n, parts)
    (axes,) = np.nonzero(hs.nu)
    if axes.size == 1:
        # on an axis normal from the normal's column alone, with the
        # operations hs.distance runs on the placed nodes' column
        j = axes[0]
        dist = (nodes[:, j] * support.radius + support.center[j]) * hs.nu[j] - hs.d
    else:
        # in one call, as its matmul can move in the last bits with the rows
        points = nodes * support.radius
        points += support.center
        dist = hs.distance(points)
    # only rounding in <x, nu> - d, far from the origin, could reach 0
    if not np.all(dist > 0.0):
        keep = np.flatnonzero(dist > 0.0)
        split = int(np.searchsorted(keep, split))
        nodes, f, slope, weights, dist = np.asfortranarray(nodes[keep]), f[keep], slope[keep], weights[keep], dist[keep]
    place = partial(_place_ball, (nodes, f, slope, weights), support.center, support.radius, dist)
    return _Rule(place, len(dist), counts[0], split)


def _build_nodes(box, hs, cfg, support) -> _Rule:
    """The ball rule where ``support`` (None: not known) takes it, else the box rule."""
    if _takes_ball(box, hs, support, cfg):
        return _build_ball(hs, cfg, support)
    # past the float range a box's weights overflow to a sum the runners report
    with np.errstate(over="ignore"):
        return _build_boundary_graded(box, hs, cfg, support)


def _sums(fs, rule: _Rule, sample) -> np.ndarray:
    """The sum of weights * values of each integrand over the rule's own
    nodes, then over its companion's, (2, len(fs)) ((1, len(fs)) without a
    split); for a Monte Carlo rule its sums over each line that ``place``
    numbers instead, (len(fs), rule.held).

    The integrands run on ``sample(points, dist, local=local)`` of each
    block of at most ``_EVAL_CHUNK`` nodes as ``rule.place`` builds it (see
    the module docstring), and each block's sums are added to its part's.
    A non-finite value raises IntegrationError with ``index`` its
    integrand's place in ``fs``."""
    count, monte_carlo = rule.count, rule.lines is not None
    ends = [count] if rule.split is None else [rule.split, count]
    sums = np.zeros((len(fs), rule.held) if monte_carlo else (len(ends), len(fs)))
    bounds = enumerate(zip([0] + ends, ends))
    pieces = [(part, a, min(a + _EVAL_CHUNK, hi)) for part, (lo, hi) in bounds for a in range(lo, hi, _EVAL_CHUNK)]
    for window in [pieces] if 0 < count <= _EVAL_CHUNK else [[piece] for piece in pieces]:
        first, last = window[0][1], window[-1][2]
        # a non-finite value raises IntegrationError, which numpy's warnings would only repeat
        with np.errstate(all="ignore"):
            points, dist, weights, local, line = rule.place(first, last)
            arg = sample(points, dist, local=local)
            for i, f in enumerate(fs):
                values = np.asarray(f(arg), dtype=float)
                for part, lo, hi in window:
                    at = slice(lo - first, hi - first)
                    if not monte_carlo:
                        # a non-finite value makes the sum non-finite; finite
                        # values that overflow it are no error
                        total = np.sum(weights[at] * values[at])
                        if not np.isfinite(total):
                            _check_finite(values[at], points[at], i)
                        sums[part, i] += total
                    else:
                        _check_finite(values[at], points[at], i)
                        sums[i] += np.bincount(line[at], weights=weights[at] * values[at], minlength=sums.shape[1])
        # the next block is placed and sampled once this one's arrays are gone
        points = dist = weights = local = line = arg = values = None
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
    block of M <= 16,384 nodes to (M,) values; the call holds one block's
    sample past the rule's compact data (its lines on the box rule, its
    cached template and dist on the ball rule).  The sample's ``dist`` is
    the rule's, exact on the boundary-graded rule down to 1e-32 and below:
    a trial field or integrand must read it, never work it back out of the
    points, which round by about 1e-16 |x|.  With ``trial = (spec, u)`` the sample is
    :func:`sample_trial` of u (a derived sample holds ``hgrad``, not
    ``grad``), each integrand must be exactly 0.0 wherever u and its
    gradient are, and it is called only at nodes inside ``u.support`` or
    in the margin of a chord.  Off the ball rule, the estimates equal
    those of u without its support up to the order of their float
    additions, and ``evaluations`` exactly.
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
    if rule.lines is None:
        with np.errstate(invalid="ignore"):  # inf - inf: a nan stderr, which the runners report
            values, replicates = sums[0], (sums[0] - sums[1])[:, None]
        stderrs = np.abs(replicates[:, 0])
    else:
        # all t >= 16 lines: those without a node deviate by 0 - mean, their squares summed at once
        t, held = rule.lines, sums.shape[1]
        values = sums.sum(axis=1)
        mean = values / t
        deviations = np.concatenate([sums, np.zeros((len(fs), t - held))], axis=1) - mean[:, None]
        stderrs = np.sqrt(t * (np.sum(deviations[:, :held] ** 2, axis=1) + (t - held) * mean**2) / (t - 1))
        replicates = deviations * math.sqrt(t / (t - 1))
    estimates = zip(values.tolist(), stderrs.tolist(), replicates.tolist())
    return [IntegralEstimate(v, e, rule.size, tuple(r)) for v, e, r in estimates]
