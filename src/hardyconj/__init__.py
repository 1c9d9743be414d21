"""Conjugations on truncated Hardy-space coefficient vectors and complex
symmetric Toeplitz finite sections, with numerical certification of every
construction against an operator-residual oracle."""

from . import conjugations, core, toeplitz
from .conjugations import *  # noqa: F403
from .core import *  # noqa: F403
from .toeplitz import *  # noqa: F403

__version__ = "0.5.0"

__all__ = core.__all__ + conjugations.__all__ + toeplitz.__all__
