"""Frequency-aware interactive state-space toolkit for time series
classification.

The package is self-contained on numpy: its own reverse-mode tape, real DFT,
seeded RNG, and optimizer.  See the README for the architecture tour and
the command-line entry points.
"""

from .model import FaimConfig, FaimModel, build_model, faim_forward, load_checkpoint, save_checkpoint
from .tensor import Tape, Tensor, backward, parameter

__version__ = "0.1.0"

__all__ = [
    "FaimConfig",
    "FaimModel",
    "Tape",
    "Tensor",
    "backward",
    "build_model",
    "faim_forward",
    "load_checkpoint",
    "parameter",
    "save_checkpoint",
    "__version__",
]
