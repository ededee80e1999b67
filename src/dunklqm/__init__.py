"""dunklqm: exact and numerical verification toolkit for one-dimensional
supersymmetric quantum mechanics with reflection (Dunkl-type) operators.

The package constructs the little -1 Jacobi and generalized Gegenbauer
polynomial families from their defining eigenvalue equations and moment
functionals in exact rational arithmetic, realizes the extended Scarf I
supercharge and Hamiltonian in both the analytic and the gauged polynomial
pictures, cross-checks every commonly printed closed form against
independent oracles (exact algebra, quadrature, finite-difference spectra),
and emits a machine-readable errata report of the discrepancies it finds.

Each module's ``__all__`` is its public API, and the package exports their
union. ``import dunklqm`` loads no module; ``dunklqm.X`` (and ``from dunklqm
import X``) imports the modules of ``_MODULES`` in order until one lists X,
so an exact-layer name loads neither numpy nor scipy. A module name, ``cli``
included, is that submodule.
"""

import importlib

__version__ = "0.1.0"

# dependency order; no name is private or in two modules' __all__
_MODULES = ("exact", "opalg", "jacobi", "gegenbauer", "refcalc", "susyqm",
            "grid", "spectra", "errata")


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    for module_name in _MODULES if not name.startswith("_") else ():
        module = importlib.import_module(f"{__name__}.{module_name}")
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
