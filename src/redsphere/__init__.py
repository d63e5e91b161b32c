"""Reduced spherically convex polygons: construction, verification, metrics.

A convex spherical polygon of thickness below pi/2 is *reduced* when the
projection of every vertex onto the great circle of the opposite side lands
strictly inside that side at distance exactly the thickness.  This package
builds such polygons, samples perturbed ones, and numerically verifies the
extremal claims about their perimeter, diameter and smallest enclosing cap.
"""

from . import errors, formulas, polygon, sampler, verify
from .errors import *
from .formulas import *
from .polygon import *
from .sampler import *
from .verify import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *formulas.__all__, *polygon.__all__,
           *sampler.__all__, *verify.__all__]
