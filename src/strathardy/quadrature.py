"""Quadrature over coordinate boxes clipped to a half-space.

Three methods share one node-set abstraction:

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
integrands are only called on weight-carrying nodes.  Given a trial
``(spec, u)``, :func:`integrate_many` also skips the nodes outside
``u.support`` and calls each integrand on a
:class:`~strathardy.calculus.TrialSample` (nodes, dist, W, u, grad u and
grad_H u, computed once per chunk of nodes and shared by all integrands;
``len(sample)`` is its node count) instead of on the nodes.  Every such
integrand must be exactly 0.0 where u and grad u are, so skipping those
nodes changes no value and no stderr.

``evaluations`` in the returned estimate counts the nodes considered.  A
non-finite integrand value raises IntegrationError naming the offending
point.

No rule builds more than 2e7 nodes in one node set (the fine set, or its
coarse companion): the count is worked out before anything is allocated,
and a larger request raises NodeBudgetError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .calculus import HalfSpace, ScalarField, sample_trial
from .groups import GroupSpec
from .streams import philox_stream

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


def _philox_uniform(seed: int, count: int, dim: int) -> np.ndarray:
    """Uniform (count, dim) samples from fixed-size Philox chunks.

    Chunk c uses key (seed, c); consumers always read chunks in index
    order, so the stream does not depend on worker scheduling.
    """
    rows_per_chunk = max(1, _CHUNK // max(1, dim))
    chunks = []
    produced = 0
    index = 0
    while produced < count:
        bits = philox_stream(seed, index)
        take = min(rows_per_chunk, count - produced)
        chunks.append(bits.random((take, dim)))
        produced += take
        index += 1
    return np.concatenate(chunks, axis=0) if len(chunks) > 1 else chunks[0]


class _NodeSet:
    """Quadrature nodes with weights; zero weight marks 'never evaluate'."""

    def __init__(self, points, weights, kind, group_size=1, coarse=None):
        self.points = points
        self.weights = weights
        self.kind = kind  # "det" or "mc"
        self.group_size = group_size
        self.coarse = coarse  # (points, weights) for deterministic error gap

    @property
    def evaluations(self) -> int:
        return self.points.shape[0]


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


def _tensor_gauss_nodes(box, hs, ppa) -> tuple[np.ndarray, np.ndarray]:
    n = box.shape[0]
    _check_budget(ppa**n, f"tensor-gauss with {ppa} points per axis in {n} dimensions")
    pts, w = _tensor_product(*_tensor_gauss_axes(box, [ppa] * n))
    w = np.where(hs.distance(pts) > 0.0, w, 0.0)
    return pts, w


def _build_tensor_gauss(box, hs, cfg) -> _NodeSet:
    pts, w = _tensor_gauss_nodes(box, hs, cfg.points_per_axis)
    coarse = _tensor_gauss_nodes(box, hs, max(2, cfg.points_per_axis // 2))
    return _NodeSet(pts, w, "det", coarse=coarse)


def _build_monte_carlo(box, hs, cfg) -> _NodeSet:
    n = box.shape[0]
    _check_budget(cfg.sample_count, "monte-carlo")
    u = _philox_uniform(cfg.seed, cfg.sample_count, n)
    pts = box[:, 0] + u * (box[:, 1] - box[:, 0])
    vol = float(np.prod(box[:, 1] - box[:, 0]))
    w = np.where(hs.distance(pts) > 0.0, vol / cfg.sample_count, 0.0)
    return _NodeSet(pts, w, "mc", group_size=1)


def _graded_s_axis(lo, hi, valid, m, ppa, panels, panel_order):
    """Per-row s nodes and weights for the substitution dist = s**m.

    lo, hi: (T,) distance ranges (lo >= 0).  Returns s (T, S), ws (T, S).
    Rows with valid = False get zero weights and dummy unit nodes.
    """
    lo = np.where(valid, lo, 0.0)
    hi = np.where(valid, hi, 1.0)
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
        s = (mid[:, :, None] + half[:, :, None] * x[None, None, :]).reshape(lo.shape[0], -1)
        ws = (half[:, :, None] * w[None, None, :]).reshape(lo.shape[0], -1)
    ws = np.where(valid[:, None], ws, 0.0)
    return s, ws


def _build_boundary_graded(box, hs, cfg, coarse_of=None) -> _NodeSet:
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
        order = _PANEL_ORDER if coarse_of is None else _PANEL_ORDER // 2
        s_count = (panels + 1) * order
    else:
        panels = None
        order = None
        s_count = 2 * cfg.points_per_axis

    kind = "det" if len(trans_axes) <= 4 else "mc"
    if kind == "mc":
        t_count = max(16, cfg.sample_count // s_count)
    else:
        t_count = cfg.points_per_axis ** len(trans_axes)
    _check_budget(
        t_count * s_count,
        f"boundary-graded with {cfg.points_per_axis} points per axis in {n} dimensions",
    )

    if not trans_axes:
        trans_pts = np.zeros((1, 0))
        trans_w = np.ones(1)
    elif kind == "det":
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
    valid = hi > np.maximum(lo, 0.0)

    s, ws = _graded_s_axis(lo, hi, valid, m, cfg.points_per_axis, panels, order)
    dist = s**m
    ws = np.where(dist > 0.0, ws, 0.0)  # guard against underflow of s**m
    jac = (m * s ** (m - 1.0)) / abs(nuj)
    xj = (dist - c[:, None]) / nuj

    t_count, s_count = s.shape
    pts = np.empty((t_count, s_count, n))
    for ax_pos, ax in enumerate(trans_axes):
        pts[:, :, ax] = trans_pts[:, ax_pos][:, None]
    pts[:, :, jstar] = xj
    w = trans_w[:, None] * ws * jac

    flat_pts = pts.reshape(-1, n)
    flat_w = w.reshape(-1)
    # the round trip s -> coordinate -> distance cancels catastrophically
    # near an offset boundary; drop nodes the half-space itself would place
    # on or past the boundary, since integrands recompute distance that way
    flat_w = np.where(hs.distance(flat_pts) > 0.0, flat_w, 0.0)

    node_set = _NodeSet(
        flat_pts,
        flat_w,
        kind,
        group_size=s_count if kind == "mc" else 1,
    )
    if kind == "det" and coarse_of is None:
        coarse_cfg = QuadConfig(
            method=cfg.method,
            points_per_axis=max(2, cfg.points_per_axis // 2),
            sample_count=cfg.sample_count,
            seed=cfg.seed,
            grading_exponent=cfg.grading_exponent,
        )
        coarse = _build_boundary_graded(box, hs, coarse_cfg, coarse_of=cfg)
        node_set.coarse = (coarse.points, coarse.weights)
    return node_set


def _build_nodes(box, hs, cfg) -> _NodeSet:
    if cfg.method == "boundary-graded":
        return _build_boundary_graded(box, hs, cfg)
    if cfg.method == "tensor-gauss":
        return _build_tensor_gauss(box, hs, cfg)
    return _build_monte_carlo(box, hs, cfg)


def _live_nodes(points, weights, support) -> np.ndarray:
    """Indices of the weight-carrying nodes inside ``support`` (all if None).

    The predicate runs on ``_EVAL_CHUNK`` slices so that its temporaries
    stay as small as one integrand call's.
    """
    live = weights != 0.0
    if support is not None:
        for start in range(0, points.shape[0], _EVAL_CHUNK):
            part = slice(start, start + _EVAL_CHUNK)
            live[part] &= np.asarray(support(points[part]), dtype=bool)
    return np.flatnonzero(live)


def _evaluate(fs, points, live, sample) -> np.ndarray:
    """Values of every integrand at the node indices ``live``; (len(fs), live.size).

    Each integrand is called once per ``_EVAL_CHUNK`` slice of the live
    nodes, on ``sample(nodes)`` when ``sample`` is given and on the nodes
    themselves otherwise.
    """
    out = np.empty((len(fs), live.size))
    for start in range(0, live.size, _EVAL_CHUNK):
        idx = live[start : start + _EVAL_CHUNK]
        arg = points[idx] if sample is None else sample(points[idx])
        for i, f in enumerate(fs):
            vals = np.asarray(f(arg), dtype=float)
            bad = ~np.isfinite(vals)
            if np.any(bad):
                where = points[idx[bad][0]]
                raise IntegrationError(
                    f"integrand returned a non-finite value at point {where.tolist()}",
                    point=where,
                )
            out[i, start : start + idx.size] = vals
    return out


def _contributions(weights, live, vals) -> np.ndarray:
    """weights * values over the whole node set, with values zero off ``live``."""
    values = np.zeros(weights.shape[0])
    values[live] = vals
    return weights * values


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
    ns = _build_nodes(box, hs, cfg)
    support = sample = None
    if trial is not None:
        spec, u = trial
        support = u.support
        sample = partial(sample_trial, spec, hs, u)
    live = _live_nodes(ns.points, ns.weights, support)
    fine = _evaluate(fs, ns.points, live, sample)
    if ns.kind == "det":
        cpts, cw = ns.coarse
        coarse_live = _live_nodes(cpts, cw, support)
        coarse = _evaluate(fs, cpts, coarse_live, sample)
    out = []
    for i in range(len(fs)):
        contrib = _contributions(ns.weights, live, fine[i])
        value = float(np.sum(contrib))
        if ns.kind == "det":
            stderr = abs(value - float(np.sum(_contributions(cw, coarse_live, coarse[i]))))
        else:
            g = ns.group_size
            lines = contrib.reshape(-1, g).sum(axis=1) if g > 1 else contrib
            t = lines.shape[0]
            stderr = float(np.sqrt(t) * np.std(lines, ddof=1)) if t > 1 else float("inf")
        out.append(IntegralEstimate(value=value, stderr=stderr, evaluations=ns.evaluations))
    return out
