"""Uncertain shapelet transform: error-propagating time-series classification.

The package models measurements as ``best ± uncertainty`` values, propagates
the uncertainty through a squared-Euclidean dissimilarity, extracts
class-discriminative uncertain shapelets, and classifies the resulting
uncertain feature vectors with a deterministic decision tree.  A CLI wires
the stages together and benchmarks the uncertainty-aware pipeline against
the classical one under a reproducible noise-injection protocol.
"""

from . import classify, core, series, shapelet
from .classify import *
from .core import *
from .series import *
from .shapelet import *

__version__ = "0.1.0"

__all__ = core.__all__ + series.__all__ + shapelet.__all__ + classify.__all__
