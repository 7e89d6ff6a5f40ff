import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strathardy

# every name the package exports, by the module that defines or re-exports it
_EXPORTS = {
    "errors": "Refusal",
    "polynomials": "Polynomial",
    "groups": (
        "GroupSpec heisenberg_group abelian_group group_from_table group_from_name h_multiply "
        "dilate commutator_check left_translation_jacobian"
    ),
    "calculus": (
        "H_STEP HalfSpace halfspace_preset ScalarField distance_field pairing_polynomials "
        "field_pairings horizontal_from_euclidean apply_field_to_polynomial "
        "angle_function_many TrialSample sample_trial "
        "identity_Xi_pairing_many sub_laplacian_distance_polynomial "
        "distance_flux_parts p_sub_laplacian_fd_many p_sub_laplacian_distance_many "
        "orthogonality_identity_many"
    ),
    "quadrature": "QuadConfig IntegralEstimate IntegrationError NodeBudgetError integrate_many",
    "trials": (
        "BumpSpec BumpSupport make_bump power_weighted_sample "
        "SharpnessSpec boundary_bump_spec "
        "random_interior_bumps"
    ),
    "experiments": (
        "sharp_hardy_constant beta_star beta_form_coefficient remainder_constant sobolev_exponent "
        "TrivialTrialError Check each_p HARDY GENERAL_HARDY REMAINDER SOBOLEV LUAN_YOUNG "
        "hardy_sobolev_ratio bft_fuzz sharpness_grid"
    ),
    "identities": "IdentityCheck run_identity_suite",
    "reports": "CSV_COLUMNS Report config_digest render_csv render_json",
}


def test_every_export_is_the_object_of_its_module():
    for module_name, names in _EXPORTS.items():
        module = importlib.import_module(f"strathardy.{module_name}")
        for name in names.split():
            assert getattr(strathardy, name) is getattr(module, name), name
    assert strathardy.__version__ == "0.1.0"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(strathardy, "no_such_name")


def test_importing_the_config_loads_no_experiment_or_report_module():
    src = str(Path(strathardy.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, strathardy.config; print(*sorted(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(done.stdout.split())
    assert "strathardy.config" in loaded
    for module in ("experiments", "identities", "reports", "cli"):
        assert f"strathardy.{module}" not in loaded
