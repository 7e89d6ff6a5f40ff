"""The benchmark's tracer (``bench/tracing.py``) on the ``h2-hardy`` workload.

The tracer counts nodes from what ``quadrature._build_nodes`` returns and
from what each integrand receives, so a change to the rule record can
break the benchmark's per-layer counts without touching ``bench/``.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import strathardy.cli
from strathardy import calculus, quadrature

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered first: a dataclass looks its module up while it is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing, run = _load("tracing"), _load("run")


def _library():
    """Every function and listed method the tracer may patch, by owner and name."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "strathardy"]
    found = {(m.__name__, attr): value for m in modules for attr, value in vars(m).items() if callable(value)}
    for targets in tracing.LAYERS.values():
        for module_name, attr in targets:
            if "." in attr:
                cls_name, method = attr.split(".")
                found[(module_name, attr)] = vars(getattr(sys.modules[module_name], cls_name))[method]
    return found


def test_the_h2_hardy_counts_and_a_restored_library(tmp_path):
    ((command, config),) = run.WORKLOADS["h2-hardy"]
    path = tmp_path / "h2-hardy.json"
    path.write_text(json.dumps(config))
    before = _library()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert quadrature._build_nodes is not before[("strathardy.quadrature", "_build_nodes")]
        assert calculus.ScalarField.values is not before[("strathardy.calculus", "ScalarField.values")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert strathardy.cli.main([command, "--config", str(path), "--format", "json", "--seed", "42"]) == 0
    finally:
        tracer.remove()
    after = _library()
    assert all(after[key] is value for key, value in before.items())
    metrics = tracer.trace.metrics()
    # two trials, each on the heisenberg:2 ball rule (62,208 nodes and its
    # companion's 1,944) in one call, whose 4 integrands (the Hardy
    # numerator and denominator at p 2 and 3) see every node
    assert metrics["quadrature.nodes"] == 2 * 64_152
    assert metrics["quadrature.integrand_points"] == 4 * 2 * 64_152
