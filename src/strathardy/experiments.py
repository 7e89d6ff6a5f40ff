"""Inequality experiments: Hardy quotients, remainder and Sobolev checks.

Each runner integrates its numerator and denominator over the trial's
support box on one shared rule, propagates a standard error, and returns a
:class:`~strathardy.reports.Report`.  The integrands are array expressions
over the :class:`~strathardy.calculus.TrialSample` that quadrature
computes once per chunk of nodes.  A p-taking runner is a :class:`Check`
(its integrands at one p, and its rows from their estimates) applied by
:func:`each_p` to that one p; given several p, :func:`each_p` integrates
the trial once for all of them, so one rule, one support mask and one
trial sample serve every p of a trial.  The sharpness sweep
(:func:`sharpness_grid`) goes further: its trials are powers of the
distance times one cutoff, so every (p, eps) of a sweep is integrated
over the cutoff's sample, from which each row's trial sample is derived.
The bounds these quantities are checked against are theorems for the
Heisenberg and abelian families, so a contract violation beyond tolerance
indicates a numerics bug, never a tunable.
"""

from __future__ import annotations

import math
import os
from functools import partial
from itertools import product
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .calculus import (
    HalfSpace,
    ScalarField,
    distance_flux_parts,
    horizontal_from_euclidean,
    p_sub_laplacian_distance_many,
)
from .groups import GroupSpec
from .quadrature import IntegralEstimate, IntegrationError, QuadConfig, integrate_many
from .reports import Report
from .streams import philox_chunks
from .trials import BumpSpec, SharpnessSpec, ground_gradient, make_bump, power_weighted_sample

__all__ = [
    "sharp_hardy_constant",
    "beta_star",
    "beta_form_coefficient",
    "remainder_constant",
    "sobolev_exponent",
    "TrivialTrialError",
    "Check",
    "each_p",
    "raise_first_error",
    "HARDY",
    "GENERAL_HARDY",
    "REMAINDER",
    "SOBOLEV",
    "hardy_quotient",
    "general_hardy_margin",
    "remainder_check",
    "hardy_sobolev_ratio",
    "luan_young_check",
    "bft_fuzz",
    "sharpness_sweep",
    "sharpness_grid",
]


# -- scalar constants ----------------------------------------------------------


def _check_p(p: float) -> float:
    p = float(p)
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    return p


def sharp_hardy_constant(p: float) -> float:
    """((p-1)/p)**p, the sharp half-space Hardy constant."""
    p = _check_p(p)
    return ((p - 1.0) / p) ** p


def beta_star(p: float) -> float:
    """-((p-1)/p)**(p-1), the optimizer of the beta-form coefficient."""
    p = _check_p(p)
    return -(((p - 1.0) / p) ** (p - 1.0))


def beta_form_coefficient(p: float, beta: float) -> float:
    """-(p-1) (|beta|^(p/(p-1)) + beta); equals the sharp constant at beta_star."""
    p = _check_p(p)
    beta = float(beta)
    return -(p - 1.0) * (abs(beta) ** (p / (p - 1.0)) + beta)


def remainder_constant(p: float) -> float:
    """(2^(p-1) - 1)^(-1), the remainder-term constant (needs p >= 2)."""
    p = _check_p(p)
    if p < 2.0:
        raise ValueError("the remainder constant is defined for p >= 2")
    return 1.0 / (2.0 ** (p - 1.0) - 1.0)


def sobolev_exponent(p: float, Q: float) -> float:
    """Q p / (Q - p) for 2 <= p < Q."""
    p = float(p)
    Q = float(Q)
    if not 2.0 <= p < Q:
        raise ValueError(f"need 2 <= p < Q, got p={p}, Q={Q}")
    return Q * p / (Q - p)


# -- shared pieces -------------------------------------------------------------


class TrivialTrialError(ValueError):
    """The trial's denominator integral is zero on the rule, or too small to
    divide by: the bound would be checked against zero and verify nothing."""


class _Case(NamedTuple):
    """One p of a check on one trial, named by its label, with the run's rule and digest."""

    spec: GroupSpec
    hs: HalfSpace
    trial: str
    p: float
    cfg: QuadConfig
    digest: str


class Check(NamedTuple):
    """A runner split at its integration, so that one integration serves
    several p.

    ``integrands(spec, hs, p)`` lists its integrands over a TrialSample at
    one p, and raises ValueError for a p the check does not take.
    ``rows(case, estimates, **params)`` builds that p's report rows from
    the estimates of those integrands, once the one at ``denominator`` is
    known to be an integral a quotient can divide by.
    """

    integrands: Callable[[GroupSpec, HalfSpace, float], list]
    rows: Callable[..., list[Report]]
    denominator: int = 1


class _Rows(NamedTuple):
    """The integrands behind some report rows, and how the rows are made
    from their estimates; ``label`` names the trial the rows are about."""

    integrands: list
    rows: Callable[[list[IntegralEstimate]], list[Report]]
    denominator: int
    label: str


def _integrate_rows(
    groups: list[_Rows], spec: GroupSpec, hs: HalfSpace, u: ScalarField, cfg: QuadConfig
) -> list[list[Report] | Exception]:
    """The rows of each group, from one integration of all their integrands.

    The integrands, over samples of u, go to one :func:`integrate_many`
    call over u's support box.  An integrand's estimate does not depend on
    the other integrands of the call, so each group's rows are, bit for
    bit, those of integrating that group alone.

    Returns one entry per group, in order: its rows, or the error that
    making them raised (a trivial trial or an overflowing integrand in that
    group, say), for the caller to raise where those rows belong.  An
    overflow is found per group by integrating the groups one at a time.
    Errors that no group causes alone (a trial without a support box, a
    rule over its node budget) are raised.  An empty ``groups`` integrates
    nothing.
    """
    if not groups:
        return []
    if u.support_box is None:
        raise ValueError("no integration box: trial has unbounded support")
    try:
        estimates = iter(
            integrate_many(
                [f for g in groups for f in g.integrands], u.support_box, hs, cfg, trial=(spec, u)
            )
        )
    except IntegrationError as exc:
        if len(groups) == 1:
            return [exc]
        # integrated alone, each group shows whether it is one that overflows
        return [out for g in groups for out in _integrate_rows([g], spec, hs, u, cfg)]
    outcomes = []
    for g in groups:
        mine = [next(estimates) for _ in g.integrands]
        den = mine[g.denominator].value
        try:
            # the quotient stderrs divide by den**2
            if den <= 0.0 or den * den == 0.0:
                raise TrivialTrialError(
                    f"trivial trial function {g.label}: its denominator integral {den!r} "
                    "on this quadrature rule is too small to check a bound against"
                )
            outcomes.append(g.rows(mine))
        except (ValueError, ArithmeticError) as exc:
            outcomes.append(exc)
    return outcomes


def raise_first_error(outcomes) -> None:
    """Raise the first error among ``outcomes``, rows or errors as
    :func:`each_p` returns them, if there is one."""
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome


def each_p(
    check: Check,
    spec: GroupSpec,
    hs: HalfSpace,
    u: ScalarField,
    ps: Sequence[float],
    cfg: QuadConfig | None = None,
    config_digest: str = "",
    **params,
) -> list[list[Report] | Exception]:
    """``check`` on trial u at each p of ``ps``, from one integration.

    The integrands of every p go to one :func:`integrate_many` call over
    u's support box, so one rule, one support mask and one trial sample
    serve them all, and each p's rows are, bit for bit, those of
    integrating that p alone.

    Returns one entry per p, in order: that p's report rows, or the error
    its check raised (a trivial trial or an overflowing integrand at that
    p, say), for the caller to raise where those rows belong.  Errors that
    do not depend on p (a trial without a support box, a rule over its
    node budget) are raised.  An empty ``ps`` integrates nothing.
    """
    cfg = cfg or QuadConfig()
    ps = [_check_p(p) for p in ps]
    groups = [
        _Rows(
            check.integrands(spec, hs, p),
            partial(check.rows, _Case(spec, hs, u.label, p, cfg, config_digest), **params),
            check.denominator,
            u.label,
        )
        for p in ps
    ]
    return _integrate_rows(groups, spec, hs, u, cfg)


def _one(check: Check, spec, hs, u, p, cfg, config_digest, **params) -> Report:
    """The one report row of ``check`` on trial u at p."""
    outcomes = each_p(check, spec, hs, u, [p], cfg, config_digest, **params)
    raise_first_error(outcomes)
    ((report,),) = outcomes
    return report


def _hardy_integrands(spec, hs, p: float):
    """The Hardy numerator |grad_H u|^p and weight (W |u| / dist)^p."""
    # (w |u| / d)^p rather than (w/d)^p * |u|^p: the factored form can
    # overflow its first factor at boundary-graded nodes even though the
    # product is tiny there
    return [
        lambda s: np.sum(s.hgrad * s.hgrad, axis=1) ** (p / 2.0),
        lambda s: (s.w * np.abs(s.u) / s.dist) ** p,
    ]


def _quotient_stderr(num: IntegralEstimate, den: IntegralEstimate) -> float:
    """The first-order stderr of num / den.

    Its second term num * den.stderr / den**2 can leave the float range on
    the way (den**2 raises OverflowError past 1.3e154, the product turns
    inf) while the term itself does not; it is then regrouped.
    """
    try:
        spread = num.value * den.stderr / den.value**2
    except OverflowError:
        spread = math.inf
    if math.isinf(spread):
        spread = num.value / den.value * (den.stderr / den.value)
    return float(np.hypot(num.stderr / den.value, spread))


def _report(inequality_id, case: _Case, estimates, extras=None, **kw):
    """A report row: ``evaluations`` sums over ``estimates``, and ``extras``
    follow the trial's label."""
    return Report(
        inequality_id=inequality_id,
        p=float(case.p),
        group=case.spec.name,
        nu=tuple(float(v) for v in case.hs.nu),
        d=float(case.hs.d),
        seed=case.cfg.seed,
        config_digest=case.digest,
        evaluations=sum(e.evaluations for e in estimates),
        extras={"trial": case.trial, **(extras or {})},
        **kw,
    )


# -- checks --------------------------------------------------------------------


def _hardy_rows(case, estimates, inequality_id="hardy"):
    num, den = estimates
    quotient = num.value / den.value
    bound = sharp_hardy_constant(case.p)
    return [
        _report(
            inequality_id,
            case,
            estimates,
            quotient=quotient,
            bound=bound,
            margin=quotient - bound,
            stderr=_quotient_stderr(num, den),
            numerator=num,
            denominator=den,
        )
    ]


def _general_hardy_integrands(spec, hs, p):
    """The Hardy integrands, and T2's unless the distance is p-harmonic."""
    s1, s2 = distance_flux_parts(spec, hs)
    integrands = _hardy_integrands(spec, hs, p)
    if not (s1.is_zero and s2.is_zero):
        integrands.append(
            lambda s: p_sub_laplacian_distance_many(spec, hs, s.points, p)
            / s.dist ** (p - 1.0)
            * np.abs(s.u) ** p
        )
    return integrands


def _general_hardy_rows(case, estimates, betas=None):
    """One row per beta of ``betas`` (None: beta_star(p) alone)."""
    p = case.p
    t0, t1 = estimates[:2]
    # no T2 integrand: the distance is p-harmonic and T2 an exact zero
    p_harmonic = len(estimates) == 2
    t2 = IntegralEstimate(0.0, 0.0, t1.evaluations) if p_harmonic else estimates[2]
    quotient = t0.value / t1.value
    rows = []
    for beta in [beta_star(p)] if betas is None else betas:
        beta = float(beta)
        coeff = beta_form_coefficient(p, beta)
        bound = coeff + beta * t2.value / t1.value
        stderr = float(
            _quotient_stderr(t0, t1)
            + abs(beta) * (_quotient_stderr(t2, t1) if t2.stderr else 0.0)
        )
        rows.append(
            _report(
                "general-hardy",
                case,
                [t0, t1, t2],
                extras={
                    "beta": beta,
                    "coefficient": coeff,
                    "p_harmonic_distance": p_harmonic,
                    "t2_value": t2.value,
                },
                quotient=quotient,
                bound=bound,
                margin=quotient - bound,
                stderr=stderr,
                numerator=t0,
                denominator=t1,
            )
        )
    return rows


def _remainder_integrands(spec, hs, p):
    """The Hardy integrands and dist^(p-1) |grad_H v|^p, v = ground transform of u."""
    if p < 2.0:
        raise ValueError("the remainder check needs p >= 2")

    def r_integrand(s):
        hor = horizontal_from_euclidean(spec, s.points, ground_gradient(s, hs, p))
        return (s.dist ** ((p - 1.0) / p) * np.sqrt(np.sum(hor * hor, axis=1))) ** p

    return _hardy_integrands(spec, hs, p) + [r_integrand]


def _remainder_rows(case, estimates):
    t0, t1, rem = estimates
    sharp = sharp_hardy_constant(case.p)
    cp = remainder_constant(case.p)
    energy = t0.value - sharp * t1.value
    slack = energy - cp * rem.value
    stderr = float(t0.stderr + sharp * t1.stderr + cp * rem.stderr)
    return [
        _report(
            "remainder",
            case,
            estimates,
            extras={"energy": energy, "remainder_integral": rem.value},
            quotient=energy / rem.value,
            bound=cp,
            margin=slack,
            stderr=stderr,
            numerator=t0,
            denominator=rem,
        )
    ]


def _sobolev_integrands(spec, hs, p):
    """The Hardy integrands and |u|^p*, for 2 <= p < Q."""
    pstar = sobolev_exponent(p, spec.homogeneous_dim)
    return _hardy_integrands(spec, hs, p) + [lambda s: np.abs(s.u) ** pstar]


def _sobolev_rows(case, estimates):
    p = case.p
    Q = case.spec.homogeneous_dim
    pstar = sobolev_exponent(p, Q)
    t0, t1, mass = estimates
    sharp = sharp_hardy_constant(p)
    energy = t0.value - sharp * t1.value
    energy_err = t0.stderr + sharp * t1.stderr
    if energy < -(3.0 * energy_err + 1e-3 * abs(t0.value)):
        raise ValueError(
            f"inconsistent remainder energy: E_p[u] = {energy} is negative beyond tolerance"
        )
    ratio = max(energy, 0.0) ** (1.0 / p) / mass.value ** (1.0 / pstar)
    if energy > 0:
        rel = energy_err / energy / p + mass.stderr / mass.value / pstar
        stderr = ratio * rel
    else:
        stderr = float("inf")
    return [
        _report(
            "sobolev",
            case,
            estimates,
            extras={"energy": energy, "p_star": pstar, "Q": float(Q), "Q-convention": "homogeneous"},
            quotient=ratio,
            bound=0.0,
            margin=ratio,
            stderr=float(stderr),
            numerator=t0,
            denominator=mass,
        )
    ]


def _luan_young_integrands(spec, hs, p):
    """|grad_H u|^2 and ((|x|^2+|y|^2)/t^2) |u|^2; p is always 2."""
    n = spec.heisenberg_n

    def weight_integrand(s):
        x = s.points[:, :n]
        y = s.points[:, n : 2 * n]
        t = s.points[:, 2 * n]
        return (np.sum(x * x, axis=1) + np.sum(y * y, axis=1)) * (s.u / t) ** 2

    return [_hardy_integrands(spec, hs, 2.0)[0], weight_integrand]


def _luan_young_rows(case, estimates):
    num, den = estimates
    quotient = num.value / den.value
    return [
        _report(
            "luan-young",
            case,
            estimates,
            quotient=quotient,
            bound=1.0,
            margin=quotient - 1.0,
            stderr=_quotient_stderr(num, den),
            numerator=num,
            denominator=den,
        )
    ]


HARDY = Check(_hardy_integrands, _hardy_rows)
GENERAL_HARDY = Check(_general_hardy_integrands, _general_hardy_rows)
REMAINDER = Check(_remainder_integrands, _remainder_rows, denominator=2)
SOBOLEV = Check(_sobolev_integrands, _sobolev_rows, denominator=2)
_LUAN_YOUNG = Check(_luan_young_integrands, _luan_young_rows)


# -- runners -------------------------------------------------------------------


def hardy_quotient(
    spec: GroupSpec,
    hs: HalfSpace,
    u: ScalarField,
    p: float,
    cfg: QuadConfig | None = None,
    config_digest: str = "",
    inequality_id: str = "hardy",
) -> Report:
    """Quotient int |grad_H u|^p / int (W/dist)^p |u|^p against the sharp bound.

    Raises on a trivial trial (zero denominator): a quotient against zero
    verifies nothing.
    """
    return _one(HARDY, spec, hs, u, p, cfg, config_digest, inequality_id=inequality_id)


def general_hardy_margin(
    spec: GroupSpec,
    hs: HalfSpace,
    u: ScalarField,
    p: float,
    beta: float,
    cfg: QuadConfig | None = None,
    config_digest: str = "",
) -> Report:
    """Margin of the beta-form bound, normalized by the weighted integral.

    The right-hand side is coeff(beta) * T1 + beta * T2 with
    T1 = int (W/dist)^p |u|^p and T2 = int (L_p dist / dist^(p-1)) |u|^p.
    When the distance is p-harmonic (exact polynomial certificate), T2 is
    an exact zero rather than a numerically integrated one.
    """
    return _one(GENERAL_HARDY, spec, hs, u, p, cfg, config_digest, betas=[float(beta)])


def remainder_check(
    spec: GroupSpec,
    hs: HalfSpace,
    u: ScalarField,
    p: float,
    cfg: QuadConfig | None = None,
    config_digest: str = "",
) -> Report:
    """Slack of the remainder bound E_p[u] >= C_p int dist^(p-1) |grad_H v|^p.

    v is the ground transform of u; the check needs p >= 2.
    """
    return _one(REMAINDER, spec, hs, u, p, cfg, config_digest)


def hardy_sobolev_ratio(
    spec: GroupSpec,
    hs: HalfSpace,
    u: ScalarField,
    p: float,
    cfg: QuadConfig | None = None,
    config_digest: str = "",
) -> Report:
    """S[u] = E_p[u]^(1/p) / (int |u|^p*)^(1/p*), scaling-invariant in u.

    Only consistency properties are checked downstream (positivity,
    invariance under u -> 7u); no value of the embedding constant is
    asserted, the best constant is not computed here.
    """
    return _one(SOBOLEV, spec, hs, u, p, cfg, config_digest)


def luan_young_check(
    spec: GroupSpec,
    u: ScalarField,
    cfg: QuadConfig | None = None,
    config_digest: str = "",
) -> Report:
    """Quotient of int |grad_H u|^2 over int ((|x|^2+|y|^2)/t^2) |u|^2 vs 1.

    The weight is written directly in coordinates (the angle-function route
    is compared against it in the tests), with the normal fixed to the
    t-axis and offset 0; that is the configuration the classical two-weight
    inequality addresses.
    """
    if not spec.is_heisenberg:
        raise ValueError("this check is specific to the Heisenberg family")
    hs = HalfSpace(nu=np.eye(2 * spec.heisenberg_n + 1)[-1], d=0.0)
    return _one(_LUAN_YOUNG, spec, hs, u, 2.0, cfg, config_digest)


# the fuzzer's Philox chunk (the stream's unit, fixed) and the rows of
# one block of arithmetic, small enough that its temporaries stay in cache
_FUZZ_CHUNK = 1 << 17
_FUZZ_BLOCK = 1 << 13


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bft_defects(a, b, dims, p) -> np.ndarray:
    """The relative defect of the vector inequality for each row of (a, b, dims, p).

    Row i uses the first dims[i] columns of a and b; the norms and the dot
    product are running sums over the columns, each power is taken once.
    """
    na2, nb2, nab2, dot = (np.zeros(p.size) for _ in range(4))
    for j in range(a.shape[1]):
        live = dims > j
        aj = np.where(live, a[:, j], 0.0)
        bj = np.where(live, b[:, j], 0.0)
        na2 += aj * aj
        nb2 += bj * bj
        ab = aj + bj
        nab2 += ab * ab
        dot += aj * bj
    na, nb, nab = np.sqrt(na2), np.sqrt(nb2), np.sqrt(nab2)
    cp = 1.0 / (2.0 ** (p - 1.0) - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.where(na > 0.0, na ** (p - 2.0), 0.0) * dot
    nab_p, na_p, cnb_p, pcross = nab**p, na**p, cp * nb**p, p * cross
    return ((nab_p - na_p) - (cnb_p + pcross)) / (nab_p + na_p + cnb_p + np.abs(pcross) + 1e-300)


def _bft_chunks(chunks, a, b, p, max_dim, lo_p, hi_p, rel_tol) -> tuple[int, float]:
    """(violations, worst defect) over ``chunks``, drawn into the buffers a, b and p.

    Each chunk draws a, b, the dimensions and p whole, in that order,
    and then works through them in blocks of ``_FUZZ_BLOCK`` rows.
    """
    violations = 0
    worst = np.inf
    for gen, take in chunks:
        va = gen.standard_normal(out=a[:take])
        vb = gen.standard_normal(out=b[:take])
        dims = gen.integers(1, max_dim + 1, size=take)
        vp = gen.random(out=p[:take])
        vp *= hi_p - lo_p
        vp += lo_p
        lowest = []
        for start in range(0, take, _FUZZ_BLOCK):
            rows = slice(start, start + _FUZZ_BLOCK)
            defect = _bft_defects(va[rows], vb[rows], dims[rows], vp[rows])
            violations += int(np.count_nonzero(defect < -rel_tol))
            lowest.append(defect.min())
        worst = min(worst, float(np.min(lowest)))
    return violations, worst


def bft_fuzz(
    samples: int = 1_000_000,
    seed: int = 42,
    max_dim: int = 5,
    p_range: tuple[float, float] = (2.0, 5.0),
    rel_tol: float = 1e-12,
    config_digest: str = "",
) -> Report:
    """Count violations of |A+B|^p - |A|^p >= C_p |B|^p + p |A|^(p-2) <A, B>.

    Dimensions 1..max_dim and exponents p in p_range are sampled along with
    normal vectors A, B from Philox streams; a draw counts as a violation
    when the defect is below -rel_tol relative to the magnitude of the
    terms involved.  For p >= 2 the inequality is a theorem, so the
    expected count is zero.

    The samples come in chunks of ``_FUZZ_CHUNK`` rows, chunk c on Philox
    key (seed, c), and the chunks run concurrently on one thread per CPU
    this process may use (never more threads than chunks).  Each chunk's
    draws and arithmetic do not depend on which thread runs it, and the
    counts and the worst defect are combined in an order-free way, so the
    report does not depend on the CPU count.  ``worst_relative_defect`` is
    the least defect drawn, which shows how close a draw came to a
    violation.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    lo_p, hi_p = float(p_range[0]), float(p_range[1])
    if lo_p < 2.0:
        raise ValueError("the vector inequality is checked for p >= 2")
    # imported here, not with the module: concurrent.futures brings in
    # logging, about 8 ms of every import of the package, for the fuzzer alone
    from concurrent.futures import ThreadPoolExecutor

    chunks = list(philox_chunks(seed, samples, _FUZZ_CHUNK))
    workers = min(_usable_cpus(), len(chunks))
    rows = min(samples, _FUZZ_CHUNK)
    # each worker's draw buffers are made here, once, rather than in its
    # thread: allocating them there raised the peak memory of a run
    buffers = [
        (np.empty((rows, max_dim)), np.empty((rows, max_dim)), np.empty(rows))
        for _ in range(workers)
    ]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_bft_chunks, chunks[k::workers], *buffers[k], max_dim, lo_p, hi_p, rel_tol)
            for k in range(workers)
        ]
        results = [future.result() for future in futures]
    violations = sum(count for count, _ in results)
    worst = min(low for _, low in results)
    return Report(
        inequality_id="bft",
        p=lo_p,
        group="euclidean-vectors",
        nu=(),
        d=0.0,
        quotient=float(violations),
        bound=0.0,
        margin=-float(violations),
        stderr=0.0,
        evaluations=samples,
        seed=seed,
        config_digest=config_digest,
        extras={
            "samples": samples,
            "max_dim": max_dim,
            "p_range": [lo_p, hi_p],
            "worst_relative_defect": worst,
        },
    )


# the (p, eps) rows of one sharpness integration: 16 integrands, as many
# as hardy holds at the most p a config may give, so that the value rows
# the rule evaluates stay that few however many rows a sweep has
_SWEEP_ROWS = 8


def sharpness_grid(
    spec: GroupSpec,
    hs: HalfSpace,
    ps: Sequence[float],
    eps_list,
    cutoff: BumpSpec,
    cfg: QuadConfig | None = None,
    config_digest: str = "",
) -> list[Report]:
    """The sharpness sweep of every p of ``ps``, in order: the rows of
    :func:`sharpness_sweep` for ps[0], then for ps[1], and so on.

    Every trial is dist^alpha times the one cutoff bump, so the rows are
    integrated together over the cutoff's support box, ``_SWEEP_ROWS``
    (p, eps) rows to one :func:`integrate_many` call: one rule, one support
    mask and one sample of the cutoff (with dist and W) serve them all.
    Each row's integrands read its trial's sample, derived from the
    cutoff's with the arithmetic of the trial field itself, and only one
    such derived sample is kept at a time.  Each row is therefore, bit for
    bit, the ``hardy_quotient`` of its ``sharpness_trial`` with inequality
    id "sharpness", and the error of the first failing row (p outer, eps
    inner) is raised, once the rows before it are known to hold none.
    """
    cfg = cfg or QuadConfig()
    field = make_bump(cutoff)
    verification = (
        abs(hs.nu[0] - 1.0) < 1e-15
        and not np.any(hs.nu[1:])
        and hs.d == 0.0
    )
    trials = []
    for p, eps in product(ps, eps_list):
        try:
            trials.append(SharpnessSpec(p=p, eps=float(eps), cutoff=cutoff))
        except (TypeError, ValueError) as exc:  # the sweep ends at a row it cannot build
            trials.append(exc)
            break
    slot = []  # (cutoff sample, row, that row's derived sample)

    def on_trial(f, row, trial):
        """Integrand f over the sample of the trial of ``row``, from the cutoff's sample."""

        def integrand(sample):
            if not slot or slot[0] is not sample or slot[1] != row:
                slot.clear()  # before the next is made: one derived sample alive
                slot.extend((sample, row, power_weighted_sample(sample, trial.exponent)))
            return f(slot[2])

        return integrand

    def rows(case, eps, estimates):
        (report,) = _hardy_rows(case, estimates, inequality_id="sharpness")
        report.extras["eps"] = eps
        report.extras["label"] = "verification" if verification else "probe"
        return [report]

    def group(row, trial):
        p = _check_p(trial.p)
        case = _Case(spec, hs, trial.label(), p, cfg, config_digest)
        return _Rows(
            [on_trial(f, row, trial) for f in _hardy_integrands(spec, hs, p)],
            partial(rows, case, trial.eps),
            HARDY.denominator,
            case.trial,
        )

    reports = []
    for start in range(0, len(trials), _SWEEP_ROWS):
        batch = trials[start : start + _SWEEP_ROWS]
        made = [t for t in batch if not isinstance(t, Exception)]
        groups = [group(start + i, t) for i, t in enumerate(made)]
        outcomes = _integrate_rows(groups, spec, hs, field, cfg) + batch[len(made) :]
        raise_first_error(outcomes)
        reports += [r for rs in outcomes for r in rs]
    return reports


def sharpness_sweep(
    spec: GroupSpec,
    hs: HalfSpace,
    p: float,
    eps_list,
    cutoff: BumpSpec,
    cfg: QuadConfig | None = None,
    config_digest: str = "",
) -> list[Report]:
    """Hardy quotients of the near-extremal family for each eps, in order.

    For the first-coordinate normal with offset 0 the sweep is a genuine
    verification (quotients must decrease toward the sharp constant as eps
    shrinks); for other normals it is a labeled probe.  The trials of every
    eps are integrated together, as :func:`sharpness_grid` does for
    several p.
    """
    return sharpness_grid(spec, hs, [p], eps_list, cutoff, cfg, config_digest)
