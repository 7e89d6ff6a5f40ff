"""Inequality experiments: Hardy quotients, remainder and Sobolev checks.

Each runner integrates its numerator and denominator on one shared node
set, propagates a standard error, and returns a
:class:`~strathardy.reports.Report`.  The integrands are array expressions
over the :class:`~strathardy.calculus.TrialSample` that quadrature
computes once per chunk of nodes.  The bounds these quantities are
checked against are theorems for the Heisenberg and abelian families, so a
contract violation beyond tolerance indicates a numerics bug, never a
tunable.
"""

from __future__ import annotations

import numpy as np

from .calculus import (
    HalfSpace,
    ScalarField,
    distance_flux_parts,
    horizontal_from_euclidean,
    p_sub_laplacian_distance_many,
)
from .groups import GroupSpec
from .quadrature import IntegralEstimate, QuadConfig, integrate_many
from .reports import Report
from .streams import philox_stream
from .trials import BumpSpec, SharpnessSpec, ground_gradient, sharpness_trial

__all__ = [
    "sharp_hardy_constant",
    "beta_star",
    "beta_form_coefficient",
    "remainder_constant",
    "sobolev_exponent",
    "hardy_quotient",
    "general_hardy_margin",
    "remainder_check",
    "hardy_sobolev_ratio",
    "luan_young_check",
    "bft_fuzz",
    "sharpness_sweep",
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


def _resolve_box(u: ScalarField, box):
    if box is not None:
        return np.asarray(box, dtype=float)
    if u.support_box is None:
        raise ValueError("no integration box: trial has unbounded support and box=None")
    return u.support_box


def _hardy_integrands(p: float):
    """The Hardy numerator |grad_H u|^p and weight (W |u| / dist)^p, as
    integrands over a TrialSample."""
    # (w |u| / d)^p rather than (w/d)^p * |u|^p: the factored form can
    # overflow its first factor at boundary-graded nodes even though the
    # product is tiny there
    return [
        lambda s: np.sum(s.hgrad * s.hgrad, axis=1) ** (p / 2.0),
        lambda s: (s.w * np.abs(s.u) / s.dist) ** p,
    ]


def _quotient_stderr(num: IntegralEstimate, den: IntegralEstimate) -> float:
    return float(
        np.hypot(num.stderr / den.value, num.value * den.stderr / den.value**2)
    )


def _base_report(inequality_id, spec, hs, p, cfg, digest, **kw) -> Report:
    return Report(
        inequality_id=inequality_id,
        p=float(p),
        group=spec.name,
        nu=tuple(float(v) for v in hs.nu),
        d=float(hs.d),
        seed=cfg.seed,
        config_digest=digest,
        **kw,
    )


# -- runners -------------------------------------------------------------------


def hardy_quotient(
    spec: GroupSpec,
    hs: HalfSpace,
    u: ScalarField,
    p: float,
    cfg: QuadConfig | None = None,
    box=None,
    config_digest: str = "",
    inequality_id: str = "hardy",
) -> Report:
    """Quotient int |grad_H u|^p / int (W/dist)^p |u|^p against the sharp bound.

    Raises on a trivial trial (zero denominator): a quotient against zero
    verifies nothing.
    """
    p = _check_p(p)
    cfg = cfg or QuadConfig()
    box = _resolve_box(u, box)
    num, den = integrate_many(_hardy_integrands(p), box, hs, cfg, trial=(spec, u))
    if den.value <= 0.0:
        raise ValueError(
            "trivial trial function: the weighted denominator integral vanishes"
        )
    quotient = num.value / den.value
    bound = sharp_hardy_constant(p)
    return _base_report(
        inequality_id,
        spec,
        hs,
        p,
        cfg,
        config_digest,
        quotient=quotient,
        bound=bound,
        margin=quotient - bound,
        stderr=_quotient_stderr(num, den),
        evaluations=num.evaluations + den.evaluations,
        numerator=num,
        denominator=den,
        extras={"trial": u.label},
    )


def general_hardy_margin(
    spec: GroupSpec,
    hs: HalfSpace,
    u: ScalarField,
    p: float,
    beta: float,
    cfg: QuadConfig | None = None,
    box=None,
    config_digest: str = "",
) -> Report:
    """Margin of the beta-form bound, normalized by the weighted integral.

    The right-hand side is coeff(beta) * T1 + beta * T2 with
    T1 = int (W/dist)^p |u|^p and T2 = int (L_p dist / dist^(p-1)) |u|^p.
    When the distance is p-harmonic (exact polynomial certificate), T2 is
    an exact zero rather than a numerically integrated one.
    """
    p = _check_p(p)
    beta = float(beta)
    cfg = cfg or QuadConfig()
    box = _resolve_box(u, box)
    s1, s2 = distance_flux_parts(spec, hs)
    p_harmonic = s1.is_zero and s2.is_zero

    integrands = _hardy_integrands(p)
    if not p_harmonic:
        integrands.append(
            lambda s: p_sub_laplacian_distance_many(spec, hs, s.points, p)
            / s.dist ** (p - 1.0)
            * np.abs(s.u) ** p
        )
    results = integrate_many(integrands, box, hs, cfg, trial=(spec, u))
    t0, t1 = results[0], results[1]
    t2 = results[2] if not p_harmonic else IntegralEstimate(0.0, 0.0, t1.evaluations)
    if t1.value <= 0.0:
        raise ValueError(
            "trivial trial function: the weighted denominator integral vanishes"
        )
    coeff = beta_form_coefficient(p, beta)
    quotient = t0.value / t1.value
    bound = coeff + beta * t2.value / t1.value
    margin = quotient - bound
    stderr = float(
        _quotient_stderr(t0, t1)
        + abs(beta) * (_quotient_stderr(t2, t1) if t2.stderr else 0.0)
    )
    return _base_report(
        "general-hardy",
        spec,
        hs,
        p,
        cfg,
        config_digest,
        quotient=quotient,
        bound=bound,
        margin=margin,
        stderr=stderr,
        evaluations=t0.evaluations + t1.evaluations + t2.evaluations,
        numerator=t0,
        denominator=t1,
        extras={
            "trial": u.label,
            "beta": beta,
            "coefficient": coeff,
            "p_harmonic_distance": p_harmonic,
            "t2_value": t2.value,
        },
    )


def remainder_check(
    spec: GroupSpec,
    hs: HalfSpace,
    u: ScalarField,
    p: float,
    cfg: QuadConfig | None = None,
    box=None,
    config_digest: str = "",
) -> Report:
    """Slack of the remainder bound E_p[u] >= C_p int dist^(p-1) |grad_H v|^p.

    v is the ground transform of u; the check needs p >= 2.
    """
    p = _check_p(p)
    if p < 2.0:
        raise ValueError("the remainder check needs p >= 2")
    cfg = cfg or QuadConfig()
    box = _resolve_box(u, box)

    def r_integrand(s):
        hor = horizontal_from_euclidean(spec, s.points, ground_gradient(s, hs, p))
        return (s.dist ** ((p - 1.0) / p) * np.sqrt(np.sum(hor * hor, axis=1))) ** p

    t0, t1, rem = integrate_many(
        _hardy_integrands(p) + [r_integrand], box, hs, cfg, trial=(spec, u)
    )
    sharp = sharp_hardy_constant(p)
    cp = remainder_constant(p)
    energy = t0.value - sharp * t1.value
    slack = energy - cp * rem.value
    stderr = float(t0.stderr + sharp * t1.stderr + cp * rem.stderr)
    return _base_report(
        "remainder",
        spec,
        hs,
        p,
        cfg,
        config_digest,
        quotient=(energy / rem.value) if rem.value > 0 else None,
        bound=cp,
        margin=slack,
        stderr=stderr,
        evaluations=t0.evaluations + t1.evaluations + rem.evaluations,
        numerator=t0,
        denominator=rem,
        extras={"trial": u.label, "energy": energy, "remainder_integral": rem.value},
    )


def hardy_sobolev_ratio(
    spec: GroupSpec,
    hs: HalfSpace,
    u: ScalarField,
    p: float,
    cfg: QuadConfig | None = None,
    box=None,
    config_digest: str = "",
) -> Report:
    """S[u] = E_p[u]^(1/p) / (int |u|^p*)^(1/p*), scaling-invariant in u.

    Only consistency properties are checked downstream (positivity,
    invariance under u -> 7u); no value of the embedding constant is
    asserted, the best constant is not computed here.
    """
    p = _check_p(p)
    Q = spec.homogeneous_dim
    pstar = sobolev_exponent(p, Q)
    cfg = cfg or QuadConfig()
    box = _resolve_box(u, box)

    t0, t1, mass = integrate_many(
        _hardy_integrands(p) + [lambda s: np.abs(s.u) ** pstar], box, hs, cfg, trial=(spec, u)
    )
    sharp = sharp_hardy_constant(p)
    energy = t0.value - sharp * t1.value
    energy_err = t0.stderr + sharp * t1.stderr
    if energy < -(3.0 * energy_err + 1e-3 * abs(t0.value)):
        raise ValueError(
            f"inconsistent remainder energy: E_p[u] = {energy} is negative beyond tolerance"
        )
    if mass.value <= 0.0:
        raise ValueError("trivial trial function: the |u|^p* integral vanishes")
    ratio = max(energy, 0.0) ** (1.0 / p) / mass.value ** (1.0 / pstar)
    if energy > 0:
        rel = energy_err / energy / p + mass.stderr / mass.value / pstar
        stderr = ratio * rel
    else:
        stderr = float("inf")
    return _base_report(
        "sobolev",
        spec,
        hs,
        p,
        cfg,
        config_digest,
        quotient=ratio,
        bound=0.0,
        margin=ratio,
        stderr=float(stderr),
        evaluations=t0.evaluations + t1.evaluations + mass.evaluations,
        numerator=t0,
        denominator=mass,
        extras={
            "trial": u.label,
            "energy": energy,
            "p_star": pstar,
            "Q": float(Q),
            "Q-convention": "homogeneous",
        },
    )


def luan_young_check(
    spec: GroupSpec,
    u: ScalarField,
    cfg: QuadConfig | None = None,
    box=None,
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
    n = spec.heisenberg_n
    hs = HalfSpace(nu=np.eye(2 * n + 1)[-1], d=0.0)
    cfg = cfg or QuadConfig()
    box = _resolve_box(u, box)

    def weight_integrand(s):
        x = s.points[:, :n]
        y = s.points[:, n : 2 * n]
        t = s.points[:, 2 * n]
        return (np.sum(x * x, axis=1) + np.sum(y * y, axis=1)) * (s.u / t) ** 2

    num, den = integrate_many(
        [_hardy_integrands(2.0)[0], weight_integrand], box, hs, cfg, trial=(spec, u)
    )
    if den.value <= 0.0:
        raise ValueError(
            "trivial trial function: the weighted denominator integral vanishes"
        )
    quotient = num.value / den.value
    return _base_report(
        "luan-young",
        spec,
        hs,
        2.0,
        cfg,
        config_digest,
        quotient=quotient,
        bound=1.0,
        margin=quotient - 1.0,
        stderr=_quotient_stderr(num, den),
        evaluations=num.evaluations + den.evaluations,
        numerator=num,
        denominator=den,
        extras={"trial": u.label},
    )


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
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    lo_p, hi_p = float(p_range[0]), float(p_range[1])
    if lo_p < 2.0:
        raise ValueError("the vector inequality is checked for p >= 2")
    violations = 0
    worst = 0.0
    chunk = 1 << 17
    produced = 0
    index = 0
    while produced < samples:
        take = min(chunk, samples - produced)
        gen = philox_stream(seed, index)
        a = gen.standard_normal((take, max_dim))
        b = gen.standard_normal((take, max_dim))
        dims = gen.integers(1, max_dim + 1, size=take)
        p = gen.uniform(lo_p, hi_p, size=take)
        mask = np.arange(max_dim)[None, :] < dims[:, None]
        a = np.where(mask, a, 0.0)
        b = np.where(mask, b, 0.0)

        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        nab = np.linalg.norm(a + b, axis=1)
        dot = np.sum(a * b, axis=1)
        cp = 1.0 / (2.0 ** (p - 1.0) - 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.where(na > 0.0, na ** (p - 2.0), 0.0) * dot
        lhs = nab**p - na**p
        rhs = cp * nb**p + p * cross
        scale = nab**p + na**p + cp * nb**p + np.abs(p * cross) + 1e-300
        defect = (lhs - rhs) / scale
        violations += int(np.sum(defect < -rel_tol))
        worst = min(worst, float(defect.min()))
        produced += take
        index += 1
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
    shrinks); for other normals it is a labeled probe.
    """
    reports = []
    verification = (
        abs(hs.nu[0] - 1.0) < 1e-15
        and float(np.max(np.abs(hs.nu[1:]))) == 0.0
        and hs.d == 0.0
    )
    for eps in eps_list:
        trial = sharpness_trial(SharpnessSpec(p=p, eps=float(eps), cutoff=cutoff), hs)
        rep = hardy_quotient(
            spec,
            hs,
            trial,
            p,
            cfg,
            box=trial.support_box,
            config_digest=config_digest,
            inequality_id="sharpness",
        )
        rep.extras["eps"] = float(eps)
        rep.extras["label"] = "verification" if verification else "probe"
        reports.append(rep)
    return reports
