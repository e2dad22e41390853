"""Energy- and invariant-conserving Runge-Kutta integrators built on discrete line integrals."""

from . import analysis, integrators, polybasis, problems, tableau
from .analysis import *  # noqa: F403
from .integrators import *  # noqa: F403
from .polybasis import *  # noqa: F403
from .problems import *  # noqa: F403
from .tableau import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *analysis.__all__, *integrators.__all__, *polybasis.__all__, *problems.__all__, *tableau.__all__
]
