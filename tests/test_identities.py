import tracemalloc

import numpy as np

from strathardy import run_identity_suite


EXPECTED_NAMES = [
    "pairing-fd",
    "harmonic-dist",
    "p-harmonic-fd(p=2)",
    "p-harmonic-fd(p=3)",
    "orthogonality",
    "commutator",
    "translation-jac",
]


def test_all_checks_pass_on_index_one():
    checks = run_identity_suite(indices=(1,), points=200, seed=99)
    assert [c.name for c in checks] == EXPECTED_NAMES
    assert all(c.passed for c in checks)
    assert all(c.residual <= c.tolerance or c.residual < c.tolerance for c in checks)


def test_exact_checks_have_zero_residual():
    checks = {c.name: c for c in run_identity_suite(indices=(2,), points=100, seed=5)}
    assert checks["harmonic-dist"].residual == 0.0
    assert checks["commutator"].residual == 0.0
    assert checks["orthogonality"].residual == 0.0


def test_deterministic_in_seed():
    a = run_identity_suite(indices=(1,), points=50, seed=12)
    b = run_identity_suite(indices=(1,), points=50, seed=12)
    assert a == b


def test_group_labels():
    checks = run_identity_suite(indices=(1, 2), points=30, seed=1)
    groups = {c.group for c in checks}
    assert groups == {"heisenberg:1", "heisenberg:2"}
    assert len(checks) == 2 * len(EXPECTED_NAMES)


def test_fd_residuals_are_small_but_nonzero():
    checks = {c.name: c for c in run_identity_suite(indices=(1,), points=100, seed=3)}
    assert 0.0 < checks["pairing-fd"].residual < 1e-6
    assert 0.0 < checks["translation-jac"].residual < 1e-10
    assert checks["p-harmonic-fd(p=3)"].residual < 1e-4


def test_the_benchmark_suite_stays_within_two_mib():
    # 1,000 points on heisenberg:1 to :3, as the benchmark runs it: 3.98 MiB
    # at peak when each normal's finite-difference probes were formed at once
    run_identity_suite(points=1000, indices=(1, 2, 3))
    tracemalloc.start()
    try:
        run_identity_suite(points=1000, indices=(1, 2, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20
