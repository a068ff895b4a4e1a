"""Finite-dimensional Krein spaces and J-fusion frames.

Construction and classification of subspaces of an indefinite
inner-product space, certification of the J-fusion frame property with
optimal and estimated frame bounds, canonical J-dual frames, and
sampling-based checks of operator preservation properties.
"""

from .core import *
from .duality import *
from .errors import *
from .fusion import *
from .problem import *
from .transforms import *

__version__ = "0.1.0"
