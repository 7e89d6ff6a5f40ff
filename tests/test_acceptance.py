"""Acceptance battery: one test per release criterion, one verdict line each.

Every test prints a single ``PASS``/``FAIL`` line through :func:`record`;
conftest replays the collected lines in the terminal summary so they are
visible without ``-s``.  Tolerances are pinned here, not imported, so a
regression in the library cannot silently relax the gate.
"""

import json
import time

import numpy as np
import pytest

from strathardy import (
    CSV_COLUMNS,
    QuadConfig,
    abelian_group,
    angle_function_many,
    beta_form_coefficient,
    beta_star,
    bft_fuzz,
    boundary_bump_spec,
    halfspace_preset,
    hardy_sobolev_ratio,
    heisenberg_group,
    make_bump,
    random_interior_bumps,
    remainder_constant,
    run_identity_suite,
    sharp_hardy_constant,
    sharpness_grid,
    sobolev_exponent,
)
from strathardy.cli import main
from strathardy.experiments import HARDY, REMAINDER, each_p

RESULTS: list[str] = []


def record(index, name, ok, detail):
    line = "[%d] %-22s %s  (%s)" % (index, name, "PASS" if ok else "FAIL", detail)
    RESULTS.append(line)
    print(line)
    assert ok, line


# Tolerance each named identity residual must beat, per group, at 1000
# random points.  The zero entries are exact polynomial cancellations.
IDENTITY_TOLERANCES = {
    "pairing-fd": 1e-6,
    "harmonic-dist": 0.0,
    "p-harmonic-fd(p=2)": 1e-4,
    "p-harmonic-fd(p=3)": 1e-4,
    "orthogonality": 1e-12,
    "commutator": 0.0,
    "translation-jac": 1e-10,
}

# Boundary-concentration quotients for p=2 on the x1-axis half-space,
# cutoff radius 1, frozen from an independent high-resolution run.
SHARPNESS_REFERENCE = {0.5: 2.31165995, 0.2: 1.02630453, 0.1: 0.62946707, 0.05: 0.43749602}


def test_01_identity_suite():
    t0 = time.perf_counter()
    checks = run_identity_suite(indices=(1, 2, 3), points=1000, seed=2024)
    wall = time.perf_counter() - t0
    assert len(checks) == 21
    worst = 0.0
    for c in checks:
        limit = IDENTITY_TOLERANCES[c.name]
        assert c.tolerance <= limit or limit == 0.0 and c.tolerance == 0.0
        assert c.passed and c.residual <= limit
        worst = max(worst, c.residual)
    record(
        1,
        "identity-suite",
        wall < 10.0,
        "21 checks on heisenberg:1..3, worst residual %.2e, %.2f s" % (worst, wall),
    )


def test_02_constants():
    values = {
        "sharp_hardy_constant(2)": (sharp_hardy_constant(2.0), 0.25),
        "beta_star(2)": (beta_star(2.0), -0.5),
        "beta_form_coefficient(2,beta*)": (beta_form_coefficient(2.0, beta_star(2.0)), 0.25),
        "remainder_constant(2)": (remainder_constant(2.0), 1.0),
        "sobolev_exponent(2,4)": (sobolev_exponent(2.0, 4), 4.0),
    }
    worst = max(abs(got - want) for got, want in values.values())
    record(2, "closed-form-constants", worst <= 1e-14, "max abs error %.1e over 5 constants" % worst)


def test_03_hardy_battery():
    h1 = heisenberg_group(1)
    cfg = QuadConfig()
    t0 = time.perf_counter()
    count = 0
    min_slack = np.inf
    for preset in ("t-axis", "x1-axis"):
        hs = halfspace_preset(h1, preset, 0.0)
        bumps = [make_bump(s) for s in random_interior_bumps(hs, 50, seed=42)]
        for p in (2.0, 3.0):
            for u in bumps:
                ((rep,),) = each_p(HARDY, h1, hs, u, [p], cfg)
                min_slack = min(min_slack, rep.margin + 3 * rep.stderr)
                count += 1
    wall = time.perf_counter() - t0
    assert count == 200
    record(
        3,
        "hardy-battery",
        min_slack >= 0.0 and wall < 120.0,
        "200 quotients, min(margin+3*stderr)=%.4f, %.1f s" % (min_slack, wall),
    )


def test_04_abelian_degeneration():
    r3 = abelian_group(3)
    hs = halfspace_preset(r3, "x1-axis", 0.0)
    rng = np.random.Generator(np.random.Philox(key=5))
    pts = np.column_stack(
        [rng.uniform(0.01, 3.0, 1000), rng.uniform(-3, 3, 1000), rng.uniform(-3, 3, 1000)]
    )
    w = angle_function_many(r3, hs, pts)
    angle_exact = bool(np.all(w == 1.0))
    cfg = QuadConfig()
    min_slack = np.inf
    for s in random_interior_bumps(hs, 20, seed=42):
        ((rep,),) = each_p(HARDY, r3, hs, make_bump(s), [2.0], cfg)
        min_slack = min(min_slack, rep.quotient - 0.25 + 3 * rep.stderr)
    record(
        4,
        "abelian-degeneration",
        angle_exact and min_slack >= 0.0,
        "W==1 bitwise at 1000 points, min(q-1/4+3*stderr)=%.4f over 20 bumps" % min_slack,
    )


def test_05_sharpness():
    h1 = heisenberg_group(1)
    hs = halfspace_preset(h1, "x1-axis", 0.0)
    cutoff = boundary_bump_spec(hs, radius=1.0)
    eps = sorted(SHARPNESS_REFERENCE, reverse=True)
    reps = sharpness_grid(h1, hs, [2.0], eps, cutoff, QuadConfig())
    q = [r.quotient for r in reps]
    decreasing = all(a > b for a, b in zip(q, q[1:]))
    rel = max(abs(qi - SHARPNESS_REFERENCE[e]) / SHARPNESS_REFERENCE[e] for qi, e in zip(q, eps))
    shrink = (q[0] - 0.25) / (q[-1] - 0.25)
    verified = all(r.extras["label"] == "verification" for r in reps)
    ok = decreasing and q[-1] < 0.44 and shrink >= 2.0 and rel <= 0.02 and verified
    record(
        5,
        "sharpness-approach",
        ok,
        "q(0.05)=%.4f, gap shrink %.1fx, max rel dev vs reference %.3f" % (q[-1], shrink, rel),
    )


def test_06_remainder():
    h1 = heisenberg_group(1)
    hs = halfspace_preset(h1, "t-axis", 0.0)
    cfg = QuadConfig()
    bumps = [make_bump(s) for s in random_interior_bumps(hs, 20, seed=42)]
    min_slack = np.inf
    for p in (2.0, 3.0):
        for u in bumps:
            ((rep,),) = each_p(REMAINDER, h1, hs, u, [p], cfg)
            min_slack = min(min_slack, rep.margin + rep.contract_tolerance())
    record(
        6,
        "remainder-inequality",
        min_slack >= 0.0,
        "40 checks (p=2 near-identity, p=3 strict), min slack %.2e" % min_slack,
    )


def test_07_scalar_fuzz():
    rep = bft_fuzz(samples=1_000_000, seed=42)
    worst = rep.extras["worst_relative_defect"]
    record(
        7,
        "scalar-inequality-fuzz",
        rep.quotient == 0.0 and worst >= -1e-12,
        "1e6 samples, violations=%g, worst relative defect %.1e" % (rep.quotient, worst),
    )


def test_08_sobolev_ratio():
    h1 = heisenberg_group(1)
    hs = halfspace_preset(h1, "t-axis", 0.0)
    cfg = QuadConfig()
    exponent_ok = sobolev_exponent(2.0, 4) == 4.0
    bumps = [make_bump(s) for s in random_interior_bumps(hs, 20, seed=42)]
    ratios = [hardy_sobolev_ratio(h1, hs, u, 2.0, cfg).quotient for u in bumps]
    scaled = hardy_sobolev_ratio(h1, hs, bumps[0].scaled(7.0), 2.0, cfg).quotient
    homogeneity = abs(scaled / ratios[0] - 1.0)
    ok = exponent_ok and min(ratios) > 0.0 and homogeneity <= 1e-10
    record(
        8,
        "sobolev-ratio",
        ok,
        "p*=4, empirical infimum %.4f over 20 bumps, |S(7u)/S(u)-1|=%.1e" % (min(ratios), homogeneity),
    )


def test_09_cli_determinism(tmp_path):
    cfg = {"trials": {"count": 5}, "quadrature": {"points_per_axis": 10}, "p": [2.0], "seed": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    paths = {}
    for fmt in ("csv", "json"):
        a, b = tmp_path / ("a." + fmt), tmp_path / ("b." + fmt)
        for out in (a, b):
            code = main(["hardy", "--config", str(cfg_path), "--out", str(out), "--format", fmt])
            assert code == 0
        paths[fmt] = (a, b)
    same = all(a.read_bytes() == b.read_bytes() for a, b in paths.values())
    header = paths["csv"][0].read_text().split("\n")[0]
    ok = same and header == ",".join(CSV_COLUMNS)
    record(9, "cli-determinism", ok, "repeat runs byte-identical for csv and json, schema stable")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
