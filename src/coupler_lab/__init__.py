"""Effective qubit-qubit interactions mediated by a nonlinear inductive coupler.

A public name is declared once, in its module's ``__all__``; the package
re-exports those lists and builds its own ``__all__`` from them.
"""

import importlib

__version__ = "0.1.0"

from . import bench, coupler, errors, kapteyn, oscillator, projection
from .bench import *
from .coupler import *
from .errors import *
from .kapteyn import *
from .oscillator import *
from .projection import *

# The cli module is imported on first use, not here: ``python -m
# coupler_lab.cli`` imports this package first and must find cli unimported.
_CLI_NAMES = ("SystemConfig", "from_physical", "load_config", "run", "to_physical")

__all__ = [name for module in (bench, coupler, errors, kapteyn, oscillator, projection)
           for name in module.__all__] + [*_CLI_NAMES, "__version__"]


def __getattr__(name):
    if name == "cli" or name in _CLI_NAMES:
        cli = importlib.import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
