"""Quadrature over coordinate boxes clipped to a half-space.

Three methods build one kind of rule record (nodes, weights, and where
the built nodes sit in the full rule), and one function evaluates any
rule:

``boundary-graded`` (default)
    Integrates along the half-space normal with the substitution
    dist = s**m (grading exponent m), which turns integrable boundary
    singularities dist**g, g > -1, into something Gauss rules can handle.
    When the box touches the boundary the s-axis additionally uses
    composite Gauss panels graded geometrically toward s = 0, because a
    single Gauss rule cannot absorb the leftover algebraic singularity at
    strongly negative g.  Accuracy degrades as g approaches -1 (the
    integral itself blows up); the property tests pin g in [-0.9, 3].
    Transverse directions use a tensor Gauss rule up to 4 axes and
    deterministic-seeded Monte Carlo above that.

``tensor-gauss``
    Plain tensor-product Gauss-Legendre over the box with a half-space
    indicator.  Cheap and fine for integrands that vanish smoothly inside
    the box; the indicator makes it first-order for anything touching the
    boundary.

``monte-carlo``
    Uniform sampling from counter-based streams (Philox keyed by
    (seed, chunk index) over fixed-size chunks), so results are
    reproducible bit for bit regardless of how the host schedules work.

Nodes with dist <= 0 are never evaluated: their weight is zero and
integrands are only called on weight-carrying nodes.  The boundary-graded
rule also zeroes a node whose recomputed dist does not clear the
rounding error of computing it, since it lies on the boundary to
rounding.  Given a trial
``(spec, u)``, :func:`integrate_many` also skips the nodes outside
``u.support`` and calls each integrand on a
:class:`~strathardy.calculus.TrialSample` (nodes, u and grad u, computed
once per chunk of nodes and shared by all integrands, with grad_H u, dist
and W on demand; ``len(sample)`` is its node count) instead of on the
nodes.  Every such integrand must be exactly 0.0 where u and grad u are,
so skipping those nodes changes no value and no stderr.

The boundary-graded rule goes further and builds only the nodes that
lie in the support's chord through their line along the normal axis
(``u.support.chord``, see :class:`~strathardy.calculus.ScalarField`), on
the lines that reach into the half-space; the other nodes would carry
zero weight or lie outside the support.  Every node that is built has
the arithmetic of the full rule, and contributions are scattered back to
their places in the full rule before any sum, so values, stderrs and
Monte Carlo line sums are those of the full rule bit for bit.  The other
two rules build every node.

A deterministic rule (tensor-gauss, or boundary-graded with at most 4
transverse axes) reports as stderr its gap to its coarse companion, which
is a rule too: the same builder at half the points per axis (and half
the panel order on graded panels), evaluated the same way.  A Monte Carlo
rule has no companion and reports the spread of its node or line sums.

``evaluations`` in the returned estimate counts the nodes considered,
that is the nodes of the full rule, built or not.  A non-finite
integrand value raises IntegrationError naming the offending point.

No rule considers more than 2e7 nodes (a coarse companion is counted on
its own): the count is worked out before anything is allocated, and a
larger request raises NodeBudgetError.  The bound holds for the full
rule, since contributions are scattered into an array of that size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .calculus import HalfSpace, ScalarField, sample_trial
from .groups import GroupSpec
from .streams import philox_chunks

__all__ = [
    "QuadConfig",
    "IntegralEstimate",
    "IntegrationError",
    "NodeBudgetError",
    "integrate_many",
]

_METHODS = ("boundary-graded", "tensor-gauss", "monte-carlo")
_CHUNK = 1 << 16
_PANEL_RATIO = 0.5
_PANEL_ORDER = 8
_EVAL_CHUNK = 1 << 20
_NODE_BUDGET = 20_000_000
# relative slack of a chord's distance range against rounding (see _s_window)
_WINDOW_MARGIN = 1e-12


@dataclass(frozen=True)
class QuadConfig:
    """Resolution and method knobs shared by all integrators.

    ``points_per_axis`` drives the deterministic rules, ``sample_count``
    the Monte Carlo ones; ``grading_exponent`` is the m in dist = s**m.
    """

    method: str = "boundary-graded"
    points_per_axis: int = 16
    sample_count: int = 200_000
    seed: int = 42
    grading_exponent: float = 4.0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown quadrature method {self.method!r}; pick from {_METHODS}")
        if self.points_per_axis < 2:
            raise ValueError("points_per_axis must be >= 2")
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
    """Raised when an integrand returns a non-finite value at a node."""

    def __init__(self, message: str, point: np.ndarray | None = None):
        super().__init__(message)
        self.point = point


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
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _as_box(box) -> np.ndarray:
    box = np.asarray(box, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValueError(f"box must be an (n, 2) array of [lo, hi] rows, got {box.shape}")
    if np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("box must have hi > lo on every axis")
    return box


@lru_cache(maxsize=1)
def _philox_uniform(seed: int, count: int, dim: int) -> np.ndarray:
    """Uniform (count, dim) samples from fixed-size Philox chunks, read-only.

    Chunk c uses key (seed, c); consumers always read chunks in index
    order, so the stream does not depend on worker scheduling.  The last
    draw is kept: every trial of a command draws the same one.
    """
    rows = max(1, _CHUNK // max(1, dim))
    chunks = [gen.random((take, dim)) for gen, take in philox_chunks(seed, count, rows)]
    out = np.concatenate(chunks, axis=0) if len(chunks) > 1 else chunks[0]
    out.flags.writeable = False
    return out


class _Rule(NamedTuple):
    """Built quadrature nodes with weights; zero weight marks 'never evaluate'.

    A rule of ``size`` nodes may build only some of them: ``index`` holds
    each built node's slot in the full rule (None when all are built), so
    a line may keep any of its nodes.
    A deterministic rule carries its ``coarse`` companion, itself a rule
    on the same box at half the points per axis, and its stderr is the gap
    between the two.  A Monte Carlo rule has no companion: its stderr
    comes from the spread of its sums over consecutive groups of
    ``group_size`` nodes (whole lines for the boundary-graded rule).
    """

    points: np.ndarray
    weights: np.ndarray
    index: np.ndarray | None
    size: int
    group_size: int = 1
    coarse: _Rule | None = None


def _coarse_config(cfg: QuadConfig) -> QuadConfig:
    return replace(cfg, points_per_axis=max(2, cfg.points_per_axis // 2))


def _tensor_gauss_axes(box: np.ndarray, orders: Sequence[int]):
    nodes_1d, weights_1d = [], []
    for (lo, hi), order in zip(box, orders):
        x, w = _gauss(int(order))
        nodes_1d.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * x)
        weights_1d.append(0.5 * (hi - lo) * w)
    return nodes_1d, weights_1d


def _tensor_product(nodes_1d, weights_1d):
    grids = np.meshgrid(*nodes_1d, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    wgrids = np.meshgrid(*weights_1d, indexing="ij")
    w = np.ones(pts.shape[0])
    for g in wgrids:
        w = w * g.reshape(-1)
    return pts, w


def _build_tensor_gauss(box, hs, cfg, companion=False) -> _Rule:
    n = box.shape[0]
    ppa = cfg.points_per_axis
    _check_budget(ppa**n, f"tensor-gauss with {ppa} points per axis in {n} dimensions")
    pts, w = _tensor_product(*_tensor_gauss_axes(box, [ppa] * n))
    w = np.where(hs.distance(pts) > 0.0, w, 0.0)
    coarse = None
    if not companion:
        coarse = _build_tensor_gauss(box, hs, _coarse_config(cfg), companion=True)
    return _Rule(pts, w, None, pts.shape[0], coarse=coarse)


def _build_monte_carlo(box, hs, cfg) -> _Rule:
    n = box.shape[0]
    _check_budget(cfg.sample_count, "monte-carlo")
    u = _philox_uniform(cfg.seed, cfg.sample_count, n)
    pts = box[:, 0] + u * (box[:, 1] - box[:, 0])
    vol = float(np.prod(box[:, 1] - box[:, 0]))
    w = np.where(hs.distance(pts) > 0.0, vol / cfg.sample_count, 0.0)
    return _Rule(pts, w, None, pts.shape[0])


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


def _build_boundary_graded(box, hs, cfg, support, companion=False) -> _Rule:
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
    if touching:
        panels = min(60, max(8, (5 * cfg.points_per_axis) // 2))
        order = _PANEL_ORDER // 2 if companion else _PANEL_ORDER
        s_count = (panels + 1) * order
    else:
        panels = None
        order = None
        s_count = 2 * cfg.points_per_axis

    deterministic = len(trans_axes) <= 4
    if deterministic:
        t_count = cfg.points_per_axis ** len(trans_axes)
    else:
        t_count = max(16, cfg.sample_count // s_count)
    _check_budget(
        t_count * s_count,
        f"boundary-graded with {cfg.points_per_axis} points per axis in {n} dimensions",
    )
    # the companion first, so that its build does not stack on this one's
    # temporaries
    coarse = None
    if deterministic and not companion:
        coarse = _build_boundary_graded(box, hs, _coarse_config(cfg), support, companion=True)

    if not trans_axes:
        trans_pts = np.zeros((1, 0))
        trans_w = np.ones(1)
    elif deterministic:
        nodes_1d, weights_1d = _tensor_gauss_axes(box[trans_axes], [cfg.points_per_axis] * len(trans_axes))
        trans_pts, trans_w = _tensor_product(nodes_1d, weights_1d)
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
    # others would carry zero weight or be masked out
    if support is not None:
        line_pts = np.zeros((t_count, n))
        line_pts[:, trans_axes] = trans_pts
        chord_lo, chord_hi = support.chord(line_pts, jstar)
        keep &= chord_lo <= chord_hi
    lines = np.flatnonzero(keep)
    trans_pts, trans_w, c, lo, hi = (a[lines] for a in (trans_pts, trans_w, c, lo, hi))

    s, ws = _graded_s_axis(lo, hi, m, cfg.points_per_axis, panels, order)
    if support is None:
        rows, cols = np.nonzero(np.ones(s.shape, dtype=bool))
    else:
        s_lo, s_hi = _s_window(chord_lo[lines], chord_hi[lines], nuj, c, m)
        rows, cols = np.nonzero((s >= s_lo[:, None]) & (s <= s_hi[:, None]))
    s, ws = s[rows, cols], ws[rows, cols]
    index = lines[rows] * s_count + cols
    dist = s**m
    ws = np.where(dist > 0.0, ws, 0.0)  # guard against underflow of s**m
    jac = (m * s ** (m - 1.0)) / abs(nuj)
    xj = (dist - c[rows]) / nuj

    pts = np.empty((rows.size, n))
    pts[:, trans_axes] = trans_pts[rows]
    pts[:, jstar] = xj
    w = trans_w[rows] * ws * jac
    # freed before the distance check below, where the build peaks
    del cols, s, ws, dist, jac

    # the round trip s -> coordinate -> distance cancels catastrophically
    # near an offset or oblique boundary, and integrands recompute distance
    # that way; drop the nodes whose recomputed distance does not clear the
    # rounding error of <x, nu> - d (n ulps of sum |x_i nu_i| + |d|): they
    # lie on the boundary to rounding, whatever s they were built from
    reach = np.abs(xj * nuj) + (np.abs(trans_pts) @ np.abs(nu[trans_axes]) + abs(hs.d))[rows]
    floor = (n * np.finfo(float).eps) * reach
    w = np.where(hs.distance(pts) > floor, w, 0.0)
    return _Rule(
        pts,
        w,
        index,
        t_count * s_count,
        group_size=1 if deterministic else s_count,
        coarse=coarse,
    )


def _build_nodes(box, hs, cfg, support) -> _Rule:
    """The rule of ``cfg.method``; boundary-graded builds no node outside ``support``'s chords."""
    if cfg.method == "boundary-graded":
        return _build_boundary_graded(box, hs, cfg, support)
    if cfg.method == "tensor-gauss":
        return _build_tensor_gauss(box, hs, cfg)
    return _build_monte_carlo(box, hs, cfg)


def _contributions(fs, rule: _Rule, support, sample):
    """weights * values of each integrand over the full rule of ``rule.size`` nodes.

    Only the weight-carrying nodes inside ``support`` (all of them if None)
    are evaluated, zero elsewhere.  The predicate and the integrands run on
    ``_EVAL_CHUNK`` slices, so that temporaries stay that small; each
    integrand on ``sample(nodes)`` when ``sample`` is given and on the
    nodes themselves otherwise.  Every
    integrand is evaluated before this returns; the rows over the full
    rule are then made one at a time as they are iterated, so sums and
    line sums over them are those of the full rule bit for bit.  All rows
    are written into one buffer: the evaluated slots are the same for
    every row and the others stay 0.0, so a row is valid until the next
    one is drawn.
    """
    points, weights = rule.points, rule.weights
    live = weights != 0.0
    if support is not None:
        for start in range(0, points.shape[0], _EVAL_CHUNK):
            part = slice(start, start + _EVAL_CHUNK)
            live[part] &= np.asarray(support(points[part]), dtype=bool)
    live = np.flatnonzero(live)
    vals = np.empty((len(fs), live.size))
    for start in range(0, live.size, _EVAL_CHUNK):
        idx = live[start : start + _EVAL_CHUNK]
        # a non-finite value raises IntegrationError; numpy's warning about
        # the operation that made it would only repeat that
        with np.errstate(all="ignore"):
            arg = points[idx] if sample is None else sample(points[idx])
            for i, f in enumerate(fs):
                v = np.asarray(f(arg), dtype=float)
                bad = ~np.isfinite(v)
                if np.any(bad):
                    where = points[idx[bad][0]]
                    raise IntegrationError(
                        f"integrand returned a non-finite value at point {where.tolist()}",
                        point=where,
                    )
                vals[i, start : start + idx.size] = v
    at = live if rule.index is None else rule.index[live]
    weights = weights[live]

    def rows():
        out = np.zeros(rule.size)  # made on the first row's request
        for v in vals:
            out[at] = weights * v
            yield out

    return rows()


def integrate_many(
    fs: Sequence[Callable],
    box,
    hs: HalfSpace,
    cfg: QuadConfig | None = None,
    trial: tuple[GroupSpec, ScalarField] | None = None,
) -> list[IntegralEstimate]:
    """Integrate several integrands over box intersect {dist > 0} on one node set.

    Without ``trial`` each integrand maps (M, n) points to (M,) values.
    With ``trial = (spec, u)`` each integrand maps a
    :class:`~strathardy.calculus.TrialSample` of u to (M,) values, must be
    exactly 0.0 wherever u and grad u are, and is called only at nodes
    inside ``u.support`` (all of them if it is None).  The estimates equal
    those of the same integrands over raw points without ``trial`` bit for
    bit, ``evaluations`` included.
    """
    cfg = cfg or QuadConfig()
    box = _as_box(box)
    if box.shape[0] != hs.dim:
        raise ValueError(f"box has {box.shape[0]} axes, half-space has {hs.dim}")
    support = sample = None
    if trial is not None:
        spec, u = trial
        support = u.support
        sample = partial(sample_trial, spec, hs, u)
    rule = _build_nodes(box, hs, cfg, support)
    fine = _contributions(fs, rule, support, sample)
    coarse = None if rule.coarse is None else _contributions(fs, rule.coarse, support, sample)
    out = []
    for contrib in fine:
        value = float(np.sum(contrib))
        if coarse is not None:
            stderr = abs(value - float(np.sum(next(coarse))))
        else:
            g = rule.group_size
            lines = contrib.reshape(-1, g).sum(axis=1) if g > 1 else contrib
            t = lines.shape[0]
            stderr = float(np.sqrt(t) * np.std(lines, ddof=1)) if t > 1 else float("inf")
        out.append(IntegralEstimate(value=value, stderr=stderr, evaluations=rule.size))
    return out
