"""Differential invariants of contact plane fields on R^3.

A small symbolic engine (scalar fields of x, y, z), an exterior-calculus
kernel built on it, and a three-stage structure-group reduction that computes
the scalar invariant M = a1^2 + a2^2 of a contact 2-plane field with the
induced Euclidean metric.
"""

from .scalarfield import *
from .forms import *
from .reduction import *
from . import corpus

__version__ = "0.1.0"
