"""Inequality experiments: Hardy quotients, remainder and Sobolev checks.

Each check of a trial u at some p (:data:`HARDY`, :data:`GENERAL_HARDY`,
:data:`REMAINDER`, :data:`SOBOLEV` and :data:`LUAN_YOUNG`) is a
:class:`Check`: its integrands at one p, and its report rows from their
estimates.  :func:`each_p` runs one, for any list of p: it integrates
the integrands of every p over the trial's support box on one shared
rule, so one rule, one support mask and one trial sample serve every p of
a trial, and propagates a standard error into each
:class:`~strathardy.reports.Report`.  The integrands are array
expressions over the :class:`~strathardy.calculus.TrialSample` that
quadrature computes once per chunk of nodes.  The first error raises.  An
integrand that is not finite at a node raises an IntegrationError naming
the integrated trial and the p of that integration; a denominator
integral too small to divide by, or a row whose quotient or stderr is
not finite, raises a TrivialTrialError naming the trial and its p.  The
sharpness sweep (:func:`sharpness_grid`) goes further: its trials are
powers of the distance times one cutoff, so every (p, eps) of a sweep is
integrated over the cutoff's sample, from which each row's trial sample
is derived.  The bounds these quantities are checked against are
theorems for the Heisenberg and abelian families, so a contract
violation beyond tolerance indicates a numerics bug, never a tunable.
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
from .streams import FUZZER, philox_chunks
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
    "HARDY",
    "GENERAL_HARDY",
    "REMAINDER",
    "SOBOLEV",
    "LUAN_YOUNG",
    "hardy_sobolev_ratio",
    "bft_fuzz",
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
    divide by: a quotient or stderr against zero or past the float range
    verifies nothing."""


class _Case(NamedTuple):
    """One p of a check on one trial, named by its label, with the run's rule and digest."""

    spec: GroupSpec
    hs: HalfSpace
    trial: str
    p: float
    cfg: QuadConfig
    digest: str


class Check(NamedTuple):
    """One inequality check, split at its integration, so that one
    integration (:func:`each_p`) serves several p.

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
    from their estimates; ``label`` and ``p`` name the trial and the p the
    rows are about."""

    integrands: list
    rows: Callable[[list[IntegralEstimate]], list[Report]]
    denominator: int
    label: str
    p: float


def _integrate_rows(
    groups: list[_Rows], spec: GroupSpec, hs: HalfSpace, u: ScalarField, cfg: QuadConfig
) -> list[list[Report]]:
    """The rows of each group, from one integration of all their integrands.

    The integrands, over samples of u, go to one :func:`integrate_many`
    call over u's support box.  An integrand's estimate does not depend on
    the other integrands of the call, so each group's rows are, bit for
    bit, those of integrating that group alone.

    The first error raises: an IntegrationError names u and the p of the
    call, a TrivialTrialError its group's trial and p, also for a row whose
    quotient or stderr is not finite.  An empty ``groups`` integrates nothing.
    """
    if not groups:
        return []
    if u.support_box is None:
        raise ValueError("no integration box: trial has unbounded support")
    fs = [f for g in groups for f in g.integrands]
    try:
        estimates = iter(integrate_many(fs, u.support_box, hs, cfg, trial=(spec, u)))
    except IntegrationError as exc:
        ps = list(dict.fromkeys(g.p for g in groups))
        raise IntegrationError(f"trial {u.label} at p {ps}: {exc}", exc.point) from exc
    rows = []
    for g in groups:
        mine = [next(estimates) for _ in g.integrands]
        den = mine[g.denominator].value
        # the quotient stderrs divide by den**2
        if den <= 0.0 or den * den == 0.0:
            raise TrivialTrialError(
                f"trivial trial function {g.label} at p {g.p!r}: its denominator integral "
                f"{den!r} on this quadrature rule is too small to check a bound against"
            )
        made = g.rows(mine)
        bad = [r for r in made if not (math.isfinite(r.quotient) and math.isfinite(r.stderr))]
        if bad:
            raise TrivialTrialError(
                f"trial {g.label} at p {g.p!r}: its quotient {bad[0].quotient!r} and stderr "
                f"{bad[0].stderr!r} are not both finite, so they check no bound"
            )
        rows.append(made)
    return rows


def each_p(
    check: Check,
    spec: GroupSpec,
    hs: HalfSpace,
    u: ScalarField,
    ps: Sequence[float],
    cfg: QuadConfig | None = None,
    config_digest: str = "",
    **params,
) -> list[list[Report]]:
    """``check`` on trial u at each p of ``ps``, from one integration.

    The integrands of every p go to one :func:`integrate_many` call over
    u's support box, so one rule, one support mask and one trial sample
    serve them all, and each p's rows are, bit for bit, those of
    integrating that p alone.

    Returns each p's report rows, in order.  The first error raises (see
    :func:`_integrate_rows`).  An empty ``ps`` integrates nothing.
    """
    cfg = cfg or QuadConfig()
    ps = [_check_p(p) for p in ps]
    groups = [
        _Rows(
            check.integrands(spec, hs, p),
            partial(check.rows, _Case(spec, hs, u.label, p, cfg, config_digest), **params),
            check.denominator,
            u.label,
            p,
        )
        for p in ps
    ]
    return _integrate_rows(groups, spec, hs, u, cfg)


def _hardy_integrands(spec, hs, p: float):
    """The Hardy numerator |grad_H u|^p and weight (W |u| / dist)^p, from bases every p shares."""
    # (w |u| / d)^p rather than (w/d)^p * |u|^p: the factored form can
    # overflow its first factor at boundary-graded nodes even though the
    # product is tiny there
    return [lambda s: s.hgrad_sq ** (p / 2.0), lambda s: s.weighted_u**p]


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


def _hardy_rows(case, estimates, inequality_id="hardy", bound=None):
    """The quotient num / den against ``bound`` (None: the sharp constant at p)."""
    num, den = estimates
    quotient = num.value / den.value
    bound = sharp_hardy_constant(case.p) if bound is None else bound
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
    """One row per beta of ``betas`` (None: beta_star(p) alone): T0 / T1
    against coeff(beta) + beta T2 / T1, T2 = int (L_p dist / dist^(p-1)) |u|^p."""
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
    """The slack of E_p[u] >= C_p int dist^(p-1) |grad_H v|^p, with E_p[u]
    the Hardy numerator less the sharp constant times its weight integral."""
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
    """|grad_H u|^2 and ((|x|^2+|y|^2)/t^2) |u|^2, the weight in coordinates.

    Only the setting of the classical two-weight inequality is taken: a
    Heisenberg group, the half-space t > 0 and p = 2; else ValueError."""
    if not spec.is_heisenberg:
        raise ValueError("this check is specific to the Heisenberg family")
    if not (hs.d == 0.0 and np.array_equal(hs.nu, np.eye(spec.total_dim)[-1])):
        raise ValueError("this check is on the half-space t > 0: the t-axis normal with d = 0")
    if p != 2.0:
        raise ValueError(f"this check is at p = 2, got p = {p!r}")
    n = spec.heisenberg_n

    def weight_integrand(s):
        x = s.points[:, :n]
        y = s.points[:, n : 2 * n]
        t = s.points[:, 2 * n]
        return (np.sum(x * x, axis=1) + np.sum(y * y, axis=1)) * (s.u / t) ** 2

    return [_hardy_integrands(spec, hs, 2.0)[0], weight_integrand]


HARDY = Check(_hardy_integrands, _hardy_rows)
GENERAL_HARDY = Check(_general_hardy_integrands, _general_hardy_rows)
REMAINDER = Check(_remainder_integrands, _remainder_rows, denominator=2)
SOBOLEV = Check(_sobolev_integrands, _sobolev_rows, denominator=2)
LUAN_YOUNG = Check(_luan_young_integrands, partial(_hardy_rows, inequality_id="luan-young", bound=1.0))


# -- runners -------------------------------------------------------------------


def hardy_sobolev_ratio(
    spec: GroupSpec,
    hs: HalfSpace,
    u: ScalarField,
    p: float,
    cfg: QuadConfig | None = None,
    config_digest: str = "",
) -> Report:
    """The one SOBOLEV row of trial u at p: S[u] = E_p[u]^(1/p) / (int |u|^p*)^(1/p*).

    Kept for the benchmark harness (``bench/run.py``) alone; everything
    else calls :func:`each_p`.  The best constant is not computed here.
    """
    ((report,),) = each_p(SOBOLEV, spec, hs, u, [p], cfg, config_digest)
    return report


# the fuzzer's Philox chunk (the stream's unit, fixed) and the rows of
# one block of arithmetic, small enough that its temporaries stay in cache
_FUZZ_CHUNK = 1 << 17
_FUZZ_BLOCK = 1 << 13


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bft_defects(a2, z, b2, p) -> np.ndarray:
    """The relative defect of the vector inequality for each row of the
    plane pairs A = (c1, 0), B = (z, c2), given as a2 = c1^2, z, b2 = c2^2.

    |A+B|^2 = (c1 + z)^2 + c2^2 is a sum of squares, which does not cancel
    near B = -A.  Each power is taken once: |A|^p is |A|^(p-2) |A|^2, with
    |A|^(p-2) also the factor of the cross term p |A|^(p-2) c1 z.
    """
    na = np.sqrt(a2)
    na_q = na ** (p - 2.0)
    cp = 1.0 / (np.exp2(p - 1.0) - 1.0)
    nab_p, na_p = np.sqrt((na + z) ** 2 + b2) ** p, na_q * a2
    cnb_p, pcross = cp * np.sqrt(z * z + b2) ** p, p * (na_q * (na * z))
    return ((nab_p - na_p) - (cnb_p + pcross)) / (nab_p + na_p + cnb_p + np.abs(pcross) + 1e-300)


def _draw_gram(gen, d: int, a2, z, b2) -> None:
    """The Gram matrices of pairs A, B of independent N(0, I_d) vectors,
    drawn into a2, z and b2 in that order: by Bartlett's decomposition, up
    to a rotation, A = (c1, 0) and B = (z, c2) with independent
    c1^2 ~ chi^2_d, z ~ N(0, 1) and c2^2 ~ chi^2_(d-1).  chi^2_1 is a
    squared normal (standard_gamma's shape-1/2 branch is 4x slower), any
    other chi^2_k is 2 Gamma(k/2), which at k = 0 is 0 and draws nothing.
    """

    def chi2(k, out):
        if k == 1:
            np.square(gen.standard_normal(out=out), out=out)
        else:
            np.multiply(gen.standard_gamma(k / 2.0, out=out), 2.0, out=out)

    chi2(d, a2)
    gen.standard_normal(out=z)
    chi2(d - 1, b2)


def _bft_chunks(chunks, buffer, max_dim, lo_p, hi_p, rel_tol) -> tuple[int, float]:
    """(violations, worst defect) over ``chunks``, drawn into ``buffer``, (4, rows).

    Each chunk draws its rows' dimensions first; then, for each dimension
    d in turn, the Gram matrices of its n_d rows and their p.  The rows of
    each d are worked through in blocks of ``_FUZZ_BLOCK``.  A defect that
    is not finite counts as a violation: it is NaN, or -inf, as a defect
    is at most 1.
    """
    violations = 0
    lowest = []
    for gen, take in chunks:
        counts = np.bincount(gen.integers(1, max_dim + 1, size=take), minlength=max_dim + 1)
        for d in range(1, max_dim + 1):
            n_d = int(counts[d])
            a2, z, b2, vp = buffer[:, :n_d]
            _draw_gram(gen, d, a2, z, b2)
            gen.random(out=vp)
            vp *= hi_p - lo_p
            vp += lo_p
            for start in range(0, n_d, _FUZZ_BLOCK):
                rows = slice(start, start + _FUZZ_BLOCK)
                # a large p overflows the powers: counted below, not warned
                with np.errstate(over="ignore", invalid="ignore"):
                    defect = _bft_defects(a2[rows], z[rows], b2[rows], vp[rows])
                # a NaN defect compares false, so it counts as a violation
                violations += defect.size - int(np.count_nonzero(defect >= -rel_tol))
                lowest.append(defect.min())
    # np.min, unlike min(), keeps a NaN whatever its place in the list
    return violations, float(np.min(lowest))


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
    terms involved, or is not finite.  For p >= 2 the inequality is a
    theorem, so the expected count is zero.  A p_range that is not finite
    with 2 <= lo <= hi, a max_dim below 1 and a rel_tol that is negative
    or not finite raise ValueError.

    The samples come in chunks of ``_FUZZ_CHUNK`` rows, chunk c on stream
    c of the fuzzer's key domain (``streams.FUZZER``).  The defect depends
    on A and B only through their Gram matrix, so a row draws that, three
    numbers whatever its d (:func:`_draw_gram`): the cost of a sample does
    not grow with max_dim.  The chunks run concurrently on one thread per
    CPU this process may use (never more threads than chunks).  Each
    chunk's draws and arithmetic do not depend on which thread runs it,
    and the counts and the worst defect are combined in an order-free
    way, so the report does not depend on the CPU count.
    ``worst_relative_defect`` is the least defect drawn, which shows how
    close a draw came to a violation.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if max_dim < 1:
        raise ValueError(f"max_dim must be at least 1, got {max_dim}")
    lo_p, hi_p = float(p_range[0]), float(p_range[1])
    if not (math.isfinite(hi_p) and 2.0 <= lo_p <= hi_p):
        raise ValueError(f"p_range must be finite with 2 <= lo <= hi, got {p_range}")
    if not (math.isfinite(rel_tol) and rel_tol >= 0.0):
        raise ValueError(f"rel_tol must be finite and non-negative, got {rel_tol}")
    # imported here, not with the module: concurrent.futures brings in
    # logging, about 8 ms of every import of the package, for the fuzzer alone
    from concurrent.futures import ThreadPoolExecutor

    chunks = list(philox_chunks(seed, samples, _FUZZ_CHUNK, FUZZER))
    workers = min(_usable_cpus(), len(chunks))
    rows = min(samples, _FUZZ_CHUNK)
    # each worker's draw buffers are made here, once, rather than in its
    # thread: allocating them there raised the peak memory of a run
    buffers = [np.empty((4, rows)) for _ in range(workers)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_bft_chunks, chunks[k::workers], buffers[k], max_dim, lo_p, hi_p, rel_tol)
            for k in range(workers)
        ]
        results = [future.result() for future in futures]
    violations = sum(count for count, _ in results)
    worst = float(np.min([low for _, low in results]))
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
    """Hardy quotients of the near-extremal family, for each p of ``ps``
    and each eps of ``eps_list``: p outer, eps inner, each in order.

    For the first-coordinate normal with offset 0 the sweep is a genuine
    verification (quotients must decrease toward the sharp constant as eps
    shrinks); for other normals it is a labeled probe.  Every trial is
    dist^alpha times the one cutoff bump, so the rows are integrated
    together over the cutoff's support box, ``_SWEEP_ROWS`` (p, eps) rows
    to one :func:`integrate_many` call: one rule, one support mask and one
    sample of the cutoff (with dist and W) serve them all.  Each row's
    integrands read its trial's sample, derived from the cutoff's with the
    arithmetic of the trial field itself, and only one such derived sample
    is kept at a time.  Each row is therefore, bit for bit, the
    :data:`HARDY` row (:func:`each_p`) of its ``sharpness_trial`` with
    inequality id "sharpness".  Every (p, eps) is built before anything is
    integrated, so one that cannot be raises at once; then the first error
    of an integration raises (see :func:`_integrate_rows`).
    """
    cfg = cfg or QuadConfig()
    field = make_bump(cutoff)
    verification = abs(hs.nu[0] - 1.0) < 1e-15 and not np.any(hs.nu[1:]) and hs.d == 0.0
    trials = [SharpnessSpec(p=p, eps=float(eps), cutoff=cutoff) for p, eps in product(ps, eps_list)]
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
            p,
        )

    reports = []
    for start in range(0, len(trials), _SWEEP_ROWS):
        groups = [group(start + i, t) for i, t in enumerate(trials[start : start + _SWEEP_ROWS])]
        reports += [r for rs in _integrate_rows(groups, spec, hs, field, cfg) for r in rs]
    return reports

