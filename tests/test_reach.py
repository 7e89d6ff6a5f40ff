import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# every function of the package that no case of tools/same_reports.py calls,
# with why it stays: an error path that tests reach, or the ROADMAP item
# that keeps or deletes it
UNREACHED = {
    "strathardy.__getattr__": "error path: the lazy export hook, which the CLI's direct imports bypass",
    "strathardy.cli._failure": "error path: a violated contract",
    "strathardy.quadrature._check_finite": "error path: a non-finite integrand",
    "strathardy.quadrature.IntegrationError.__init__": "error path: a non-finite integrand",
    "strathardy.groups.group_from_table": "item 20 keeps it: the skew table, where T2 is not 0",
    "strathardy.calculus.p_sub_laplacian_distance_many": "item 20 keeps it: T2 on the skew table",
    "strathardy.experiments._general_hardy_integrands.<lambda>": "item 20 keeps it: T2 on the skew table",
    "strathardy.groups.dilate": "item 3 uses it: dilation checks",
    "strathardy.groups.GroupSpec.stratum_weights": "item 3 uses it, through dilate",
    "strathardy.polynomials.Polynomial.__setattr__": "item 20 keeps it: polynomials are immutable",
    "strathardy.polynomials.Polynomial.variable": "item 20 keeps it: the tests' tables",
    "strathardy.polynomials.Polynomial.__repr__": "item 20 keeps it: the terms mapping",
    "strathardy.calculus.ScalarField.values": "item 20: a test-only helper",
    "strathardy.experiments.hardy_sobolev_ratio": "item 7 deletes it",
    "strathardy.trials._Bump.scaled": "item 7: the benchmark's scaled sobolev check",
    "strathardy.quadrature._philox_uniform": "item 12 deletes it: the Monte Carlo branch",
    "strathardy.quadrature._Rule.points.<lambda>": "item 8 deletes it: a whole-rule property",
    "strathardy.quadrature._Rule.dist.<lambda>": "item 8 deletes it: a whole-rule property",
    "strathardy.quadrature._Rule.weights.<lambda>": "item 8 deletes it: a whole-rule property",
    "strathardy.quadrature._Rule.local.<lambda>": "item 8 deletes it: a whole-rule property",
    "strathardy.quadrature._Rule.line.<lambda>": "item 8 deletes it: a whole-rule property",
}


def test_only_the_listed_functions_go_unreached():
    # a fresh interpreter: a function cached by an earlier test would read as unreached
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reach.py")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300, check=True,
    )
    *lines, total = done.stdout.splitlines()
    got = {line.split()[1] for line in lines}
    assert got - set(UNREACHED) == set(), "newly unreached"
    assert set(UNREACHED) - got == set(), "listed, but reached or gone"
    assert total.startswith(f"{len(UNREACHED)} functions, ")
