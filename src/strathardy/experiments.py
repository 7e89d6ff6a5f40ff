"""Inequality experiments: Hardy quotients, remainder and Sobolev checks.

Each check of a trial u at some p (:data:`HARDY`, :data:`GENERAL_HARDY`,
:data:`REMAINDER`, :data:`SOBOLEV` and :data:`LUAN_YOUNG`) is a
:class:`Check`: its integrands at one p, and its report rows from their
estimates.  :func:`each_p` runs one, for any list of p: it integrates
the integrands of every p over the trial's support box on one shared
rule, so one rule and one trial sample serve every p of a trial.  A
row's stderr is the norm, over the signed error replicates its integrals
share (see :mod:`~strathardy.quadrature`), of the row's number
linearised in them (:func:`_bar`): (e_N - q e_D) / D for a quotient
q = N / D, e_t0 - C_p e_t1 - c_p e_rem for the remainder's slack, so errors
that cancel in the number cancel in its stderr.  The integrands are
array expressions over the :class:`~strathardy.calculus.TrialSample`
that quadrature computes once per block of at most 16,384 nodes.  The
first error raises.  An integrand that is not finite at a node raises an
IntegrationError naming the trial and the p of its row; a denominator
integral too small to divide by, or a row whose quotient or stderr is
not finite or whose numerator or denominator has a stderr as large as
itself, raises a TrivialTrialError naming the trial and its p.  The
sharpness sweep (:func:`sharpness_grid`) runs on the same runner: its
trials are powers of the distance times one cutoff, so each (p, eps) of
a sweep is a :data:`HARDY` row of the cutoff whose integrands read a
view of the cutoff's sample, the trial's sample derived from it.  An
input outside a check's hypotheses, or a sharpness row with p eps < 0.1
(below the range the rule is validated for), is refused before anything is
integrated (:class:`~strathardy.errors.Refusal`, as are the errors above).  The
bounds these quantities are checked against are theorems for the
Heisenberg and abelian families, so a contract violation beyond
tolerance indicates a numerics bug, never a tunable.
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
    p_sub_laplacian_distance_many,
)
from .errors import Refusal
from .groups import GroupSpec
from .quadrature import IntegralEstimate, IntegrationError, QuadConfig, integrate_many
from .reports import Report
from .streams import FUZZER, philox_chunks
from .trials import BumpSpec, SharpnessSpec, make_bump, power_weighted_sample

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
        raise Refusal("p must exceed 1")
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
    """-(p-1) (|beta|^(p/(p-1)) + beta); equals the sharp constant at beta_star (refused past the float range)."""
    p = _check_p(p)
    beta = float(beta)
    try:
        return -(p - 1.0) * (abs(beta) ** (p / (p - 1.0)) + beta)
    except OverflowError:
        raise Refusal(f"beta {beta!r} at p={p!r}: its beta-form coefficient is past the float range") from None


def remainder_constant(p: float) -> float:
    """(2^(p-1) - 1)^(-1), the remainder-term constant (needs p >= 2)."""
    p = _check_p(p)
    if p < 2.0:
        raise Refusal("the remainder constant is defined for p >= 2")
    return 1.0 / (2.0 ** (p - 1.0) - 1.0)


def sobolev_exponent(p: float, Q: float) -> float:
    """Q p / (Q - p) for 2 <= p < Q."""
    p = float(p)
    Q = float(Q)
    if not 2.0 <= p < Q:
        raise Refusal(f"sobolev needs 2 <= p < Q = {Q:g}, got p = {p!r}")
    return Q * p / (Q - p)


# -- shared pieces -------------------------------------------------------------


class TrivialTrialError(Refusal):
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
    one p, and refuses a p the check does not take.
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
    rows are about.  ``view`` maps the sample of the integrated trial to
    the sample the integrands read (None: that sample itself)."""

    integrands: list
    rows: Callable[[list[IntegralEstimate]], list[Report]]
    denominator: int
    label: str
    p: float
    view: Callable | None = None


def _read_through_views(groups: list[_Rows]) -> list:
    """The integrands of ``groups`` in order, each reading its group's view
    of the sample it is given.  A view is made on its group's first read
    of a sample and dropped after its last, so one is alive at a time and
    none once a block's integrands are done; the sample is held with it and
    matched by identity, so a later sample is never taken for it."""
    held = []  # (sample, group, the group's view of it), for these integrands alone

    def viewed(f, group, last):
        def integrand(sample):
            if not held or held[0] is not sample or held[1] is not group:
                held[:] = (sample, group, group.view(sample))
            values = f(held[2])
            if last:
                held.clear()
            return values

        return integrand

    return [f if g.view is None else viewed(f, g, f is g.integrands[-1]) for g in groups for f in g.integrands]


def _integrate_rows(
    groups: list[_Rows], spec: GroupSpec, hs: HalfSpace, u: ScalarField, cfg: QuadConfig
) -> list[list[Report]]:
    """The rows of each group, from one integration.

    The integrands of every group, over samples of u, each through its
    group's view (:func:`_read_through_views`), go to one
    :func:`integrate_many` call over u's support box.  An integrand's
    estimate does not depend on the other integrands of the call, so each
    group's rows are, bit for bit, those of integrating that group alone.

    The first error raises: an IntegrationError names the trial and p of
    its integrand's group, a TrivialTrialError its group's, also for a row whose
    quotient or stderr is not finite or whose numerator or denominator has
    a stderr equal to its size (not 0).  An empty ``groups`` integrates nothing.
    """
    if not groups:
        return []
    if u.support_box is None:
        raise ValueError("no integration box: trial has unbounded support")
    try:
        estimates = iter(integrate_many(_read_through_views(groups), u.support_box, hs, cfg, trial=(spec, u)))
    except IntegrationError as exc:
        group = [g for g in groups for _ in g.integrands][exc.index]
        raise IntegrationError(f"trial {group.label} at p {group.p!r}: {exc}", exc.point, exc.index) from exc
    rows = []
    for g in groups:
        mine = [next(estimates) for _ in g.integrands]
        den = mine[g.denominator].value
        # one whose square underflows, below 1.5e-162, counts as 0
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
        # a stderr |fine - coarse| that is all of |fine|: the coarse rule read 0
        vacuous = [e for r in made for e in (r.numerator, r.denominator) if e.stderr == abs(e.value) != 0]
        if vacuous:
            raise TrivialTrialError(
                f"trial {g.label} at p {g.p!r}: an integral {vacuous[0].value!r} with a stderr as large "
                "as itself checks no bound"
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
    u's support box, so one rule and one trial sample serve them all, and
    each p's rows are, bit for bit, those of integrating that p alone.

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


def _bar(*terms: tuple[float, IntegralEstimate, float]) -> float:
    """A row's stderr: the norm over the replicates its integrals share of
    the row's number linearised in them, the sum of c * (e / d) over
    ``terms`` (c, estimate with replicates e, d).  Each replicate is divided
    by its d before c scales it, so a quotient's bar leaves the float range
    only where one of its terms does."""
    with np.errstate(over="ignore", invalid="ignore"):
        combined = sum(c * (np.asarray(e.replicates) / d) for c, e, d in terms)
    return math.hypot(*combined)


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


def _hardy_rows(case, estimates, inequality_id="hardy", bound=None, extras=None):
    """The quotient num / den against ``bound`` (None: the sharp constant at p)."""
    num, den = estimates
    quotient = num.value / den.value
    bound = sharp_hardy_constant(case.p) if bound is None else bound
    return [
        _report(
            inequality_id,
            case,
            estimates,
            extras,
            quotient=quotient,
            bound=bound,
            margin=quotient - bound,
            stderr=_bar((1.0, num, den.value), (-quotient, den, den.value)),
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
    t2 = IntegralEstimate(0.0, 0.0, t1.evaluations, (0.0,) * len(t1.replicates)) if p_harmonic else estimates[2]
    quotient = t0.value / t1.value
    rows = []
    for beta in [beta_star(p)] if betas is None else betas:
        beta = float(beta)
        coeff = beta_form_coefficient(p, beta)
        bound = coeff + beta * t2.value / t1.value
        # the margin t0 / t1 - coeff - beta t2 / t1, linearised in t0, t1 and t2
        stderr = _bar((1.0, t0, t1.value), (bound - coeff - quotient, t1, t1.value), (-beta, t2, t1.value))
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
    """dist^(p-1) |grad_H v|^p, v = dist^(-a) u, as |B|^p for the horizontal
    split at a = (p-1)/p, then the Hardy integrands: the split caches P
    before the Hardy weight reads W, which is then its norm."""
    if p < 2.0:
        raise Refusal("the remainder check needs p >= 2")
    a = (p - 1.0) / p

    def r_integrand(s):
        b = s.horizontal_split(a)[1]
        return np.sum(b * b, axis=1) ** (p / 2.0)

    return [r_integrand] + _hardy_integrands(spec, hs, p)


def _remainder_rows(case, estimates):
    """The slack of E_p[u] >= C_p int dist^(p-1) |grad_H v|^p, with E_p[u]
    the Hardy numerator less the sharp constant times its weight integral."""
    rem, t0, t1 = estimates
    sharp = sharp_hardy_constant(case.p)
    cp = remainder_constant(case.p)
    energy = t0.value - sharp * t1.value
    slack = energy - cp * rem.value
    stderr = _bar((1.0, t0, 1.0), (-sharp, t1, 1.0), (-cp, rem, 1.0))
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
    if energy < -(3.0 * _bar((1.0, t0, 1.0), (-sharp, t1, 1.0)) + 1e-3 * abs(t0.value)):
        raise ValueError(
            f"inconsistent remainder energy: E_p[u] = {energy} is negative beyond tolerance"
        )
    ratio = max(energy, 0.0) ** (1.0 / p) / mass.value ** (1.0 / pstar)
    # the ratio's relative change is dE / (p E) - dM / (p* M)
    terms = (1.0 / p, t0, energy), (-sharp / p, t1, energy), (-1.0 / pstar, mass, mass.value)
    stderr = ratio * _bar(*terms) if energy > 0 else math.inf
    return [
        _report(
            "sobolev",
            case,
            estimates,
            extras={"energy": energy, "p_star": pstar, "Q": float(Q), "Q-convention": "homogeneous"},
            quotient=ratio,
            bound=0.0,
            margin=ratio,
            stderr=stderr,
            numerator=t0,
            denominator=mass,
        )
    ]


def _luan_young_integrands(spec, hs, p):
    """|grad_H u|^2 and ((|x|^2+|y|^2)/t^2) |u|^2, the weight in coordinates.

    Only the setting of the classical two-weight inequality is taken: a
    Heisenberg group, the half-space t > 0 and p = 2; anything else is refused."""
    if not spec.is_heisenberg:
        raise Refusal(f"luan-young needs a group of the Heisenberg family, got {spec.name}")
    if not (hs.d == 0.0 and np.array_equal(hs.nu, np.eye(spec.total_dim)[-1])):
        raise Refusal("this check is on the half-space t > 0: the t-axis normal with d = 0")
    if p != 2.0:
        raise Refusal(f"this check is at p = 2, got p = {p!r}")
    n = spec.heisenberg_n

    def weight_integrand(s):
        x = s.points[:, :n]
        y = s.points[:, n : 2 * n]
        t = s.points[:, 2 * n]
        return (np.sum(x * x, axis=1) + np.sum(y * y, axis=1)) * (s.u / t) ** 2

    return [_hardy_integrands(spec, hs, 2.0)[0], weight_integrand]


HARDY = Check(_hardy_integrands, _hardy_rows)
GENERAL_HARDY = Check(_general_hardy_integrands, _general_hardy_rows)
REMAINDER = Check(_remainder_integrands, _remainder_rows, denominator=0)
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
# one block, the size of each worker's one draw buffer: small enough that
# the buffer and the block's temporaries stay in cache
_FUZZ_CHUNK = 1 << 17
_FUZZ_BLOCK = 1 << 13


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bft_defects(a2, z, b2, p, scratch=None) -> np.ndarray:
    """The relative defect of the vector inequality for each row of the
    plane pairs A = (c1, 0), B = (z, c2), given as a2 = c1^2, z, b2 = c2^2.

    |A+B|^2 = (c1 + z)^2 + c2^2 is a sum of squares, which does not cancel
    near B = -A.  Each power is taken once: |A|^p is |A|^(p-2) |A|^2, with
    |A|^(p-2) also the factor of the cross term p |A|^(p-2) c1 z.  Every
    temporary is written into a row of ``scratch``, (6, >= len(a2)), made
    here if None, and the defects are returned in one of its rows.
    """
    na, na_q, nab_p, na_p, pcross, t = np.empty((6, len(a2))) if scratch is None else scratch[:, : len(a2)]
    np.power(np.sqrt(a2, out=na), np.subtract(p, 2.0, out=t), out=na_q)  # |A|, |A|^(p-2)
    np.power(np.sqrt(np.add(np.square(np.add(na, z, out=t), out=t), b2, out=t), out=t), p, out=nab_p)  # |A+B|^p
    np.multiply(na_q, a2, out=na_p)
    np.multiply(p, np.multiply(na_q, np.multiply(na, z, out=t), out=t), out=pcross)
    # |A| and |A|^(p-2) are spent: their rows take C_p = 1 / (2^(p-1) - 1) and |B|^p
    cnb_p = np.divide(1.0, np.subtract(np.exp2(np.subtract(p, 1.0, out=na), out=na), 1.0, out=na), out=na)
    cnb_p *= np.power(np.sqrt(np.add(np.multiply(z, z, out=na_q), b2, out=na_q), out=na_q), p, out=na_q)
    # ((nab_p - na_p) - (cnb_p + pcross)) / (nab_p + na_p + cnb_p + |pcross| + 1e-300)
    top = np.subtract(np.subtract(nab_p, na_p, out=t), np.add(cnb_p, pcross, out=na_q), out=t)
    bottom = np.add(np.add(np.add(nab_p, na_p, out=na_q), cnb_p, out=na_q), np.abs(pcross, out=pcross), out=na_q)
    bottom += 1e-300
    return np.divide(top, bottom, out=t)


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


def _bft_chunks(chunks, max_dim, lo_p, hi_p, rel_tol, buffer=None) -> tuple[int, float]:
    """(violations, worst defect) over ``chunks``, drawn and checked in one
    buffer of (10, ``_FUZZ_BLOCK``), made here if None: rows 0-3 for the
    draws, rows 4-9 for :func:`_bft_defects`.  A worker given a buffer its
    caller made allocates no array per block.

    Each chunk draws how many of its rows have each dimension d, one
    multinomial draw; then, for each d in turn and each block of at most
    ``_FUZZ_BLOCK`` of its rows, the block's Gram matrices and their p,
    which are checked at once.  A defect that is not finite counts as a
    violation: it is NaN, or -inf, as a defect is at most 1.
    """
    buffer = np.empty((10, _FUZZ_BLOCK)) if buffer is None else buffer
    violations = 0
    lowest = []
    for gen, take in chunks:
        for d, n_d in enumerate(gen.multinomial(take, [1.0 / max_dim] * max_dim), 1):
            for start in range(0, n_d, _FUZZ_BLOCK):
                block = buffer[:, : min(_FUZZ_BLOCK, n_d - start)]
                a2, z, b2, vp = block[:4]
                _draw_gram(gen, d, a2, z, b2)
                gen.random(out=vp)
                vp *= hi_p - lo_p
                vp += lo_p
                # a large p overflows the powers: counted below, not warned
                with np.errstate(over="ignore", invalid="ignore"):
                    defect = _bft_defects(a2, z, b2, vp, block[4:])
                # a NaN defect compares false, so it counts as a violation;
                # the spent p row takes the flags
                violations += defect.size - int(np.count_nonzero(np.greater_equal(defect, -rel_tol, out=vp)))
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
    with 2 <= lo <= hi, a samples or max_dim below 1 and a rel_tol that is
    negative or not finite are refused.

    The samples come in chunks of ``_FUZZ_CHUNK`` rows, chunk c on stream
    c of the fuzzer's key domain (``streams.FUZZER``).  The defect depends
    on A and B only through their Gram matrix, so a row draws that, three
    numbers whatever its d (:func:`_draw_gram`): the cost of a sample does
    not grow with max_dim.  The chunks run concurrently on one thread per
    CPU this process may use (never more threads than chunks), each
    drawing block by block into one buffer of ``_FUZZ_BLOCK`` rows, so
    memory does not grow with ``samples`` (:func:`_bft_chunks`).  Each
    chunk's draws and arithmetic do not depend on which thread runs it,
    and the counts and the worst defect are combined in an order-free
    way, so the report does not depend on the CPU count.
    ``worst_relative_defect`` is the least defect drawn, which shows how
    close a draw came to a violation.
    """
    if samples < 1:
        raise Refusal(f"samples must be positive, got {samples}")
    if max_dim < 1:
        raise Refusal(f"max_dim must be at least 1, got {max_dim}")
    lo_p, hi_p = float(p_range[0]), float(p_range[1])
    if not (math.isfinite(hi_p) and 2.0 <= lo_p <= hi_p):
        raise Refusal(f"p_range must be finite with 2 <= lo <= hi, got {p_range}")
    if not (math.isfinite(rel_tol) and rel_tol >= 0.0):
        raise Refusal(f"rel_tol must be finite and non-negative, got {rel_tol}")
    # imported here, not with the module: concurrent.futures brings in
    # logging, about 8 ms of every import of the package, for the fuzzer alone
    from concurrent.futures import ThreadPoolExecutor

    chunks = list(philox_chunks(seed, samples, _FUZZ_CHUNK, FUZZER))
    workers = min(_usable_cpus(), len(chunks))
    # made by this thread, so no worker holds memory in an arena of its own
    buffers = np.empty((workers, 10, _FUZZ_BLOCK))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_bft_chunks, chunks[k::workers], max_dim, lo_p, hi_p, rel_tol, buffers[k])
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


# a sharpness denominator behaves like dist^(p*eps - 1), and the
# boundary-graded rule is validated for dist^g down to g = -0.9 only
_MIN_P_EPS = 0.1


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
    dist^alpha times the one cutoff bump, so each (p, eps) is a
    :data:`HARDY` row of the cutoff, with inequality id "sharpness", whose
    integrands read the view :func:`power_weighted_sample` at alpha of the
    cutoff's sample.  The rows run on :func:`_integrate_rows`, in one
    :func:`integrate_many` call: one rule and one sample of the cutoff
    (with dist and W) serve them all.  Every (p, eps) is built before
    anything is integrated, so one that cannot be, or has p eps below
    ``_MIN_P_EPS``, is refused at once; then the first error of an
    integration raises.
    """
    cfg = cfg or QuadConfig()
    verification = abs(hs.nu[0] - 1.0) < 1e-15 and not np.any(hs.nu[1:]) and hs.d == 0.0
    label = "verification" if verification else "probe"

    def group(trial):
        if trial.p * trial.eps < _MIN_P_EPS:
            raise Refusal(f"sharpness row p={trial.p!r}, eps={trial.eps!r} has p*eps < {_MIN_P_EPS!r}: its "
                          "denominator exponent p*eps - 1 is below -0.9, where quadrature is not validated")
        case = _Case(spec, hs, trial.label(), _check_p(trial.p), cfg, config_digest)
        extras = {"eps": trial.eps, "label": label}
        rows = partial(_hardy_rows, case, inequality_id="sharpness", extras=extras)
        view = partial(power_weighted_sample, a=trial.exponent)
        return _Rows(_hardy_integrands(spec, hs, case.p), rows, HARDY.denominator, case.trial, case.p, view)

    groups = [group(SharpnessSpec(p=p, eps=float(eps), cutoff=cutoff)) for p, eps in product(ps, eps_list)]
    return [r for rs in _integrate_rows(groups, spec, hs, make_bump(cutoff), cfg) for r in rs]
