"""Flatness-seeking optimizers for continual learning, with diagnostics.

Public surface: flat-vector numerics (numcore), differentiable objectives
(objective), the optimizer family (optim), the class-incremental harness
(continual), loss-landscape diagnostics (landscape), scoreboard metrics
(metrics), and the experiment CLI (cli). The package re-exports each library
module's ``__all__``, so a name is declared public once, in its module.
"""

from . import continual, landscape, metrics, numcore, objective, optim
from .numcore import *  # noqa: F401,F403
from .objective import *  # noqa: F401,F403
from .optim import *  # noqa: F401,F403
from .continual import *  # noqa: F401,F403
from .landscape import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403

__all__ = [name for module in (numcore, objective, optim, continual, landscape, metrics)
           for name in module.__all__]

__version__ = "0.1.0"
