"""Horizontal calculus and Hardy-inequality experiments on stratified groups.

Every public name of the modules below is an attribute of the package,
imported on first use, so that importing one module (``strathardy.config``,
say) does not load the experiments, the identity suite and the reports.
"""

from importlib import import_module

__version__ = "0.1.0"

# a name resolves from the first of these modules whose __all__ lists it
_PUBLIC_MODULES = (
    "polynomials", "groups", "calculus", "quadrature", "trials", "experiments", "identities", "reports",
)


def __getattr__(name: str):
    for module_name in _PUBLIC_MODULES:
        module = import_module(f"{__name__}.{module_name}")
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
