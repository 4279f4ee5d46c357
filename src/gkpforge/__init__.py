"""gkpforge: barrier budgets and Generalized King Plot extraction for
gravitomagnetic spin-quadrupole searches in highly charged ions.

The toolkit computes, at desk scale: the electromagnetic barrier budget of
a rank-2 spin-gravity search, exact angular-momentum selection rules and
hyperfine ladders, the multi-isotope design-matrix algebra with
preconditioned conditioning diagnostics, seeded Monte Carlo campaigns for
conditioning and injection-recovery, and the metrological milestone
arithmetic for the anomalous-coupling bound.
"""

__version__ = "0.1.0"

import importlib

from .errors import (
    GkpforgeError,
    NumericalError,
    RankDeficiencyError,
    RefusalError,
    UnderdeterminedError,
    ValidationError,
)

__all__ = [
    "__version__",
    "angular",
    "barriers",
    "budget",
    "gkp",
    "montecarlo",
    "nucdata",
    "topology",
    "GkpforgeError",
    "ValidationError",
    "RefusalError",
    "UnderdeterminedError",
    "RankDeficiencyError",
    "NumericalError",
]

# every layer loads on first use, so that a command loads only the layers
# it runs (and the closed-form commands start without numpy)
_LAZY_SUBMODULES = ("angular", "barriers", "budget", "gkp", "montecarlo", "nucdata", "topology")


def __getattr__(name: str):
    if name in _LAZY_SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
