"""Common complements for subspace families with certified transversality decay."""

from . import geometry, polytope, prevalence, separator
from .geometry import *
from .polytope import *
from .separator import *
from .prevalence import *

__version__ = "0.1.0"

__all__ = [*geometry.__all__, *polytope.__all__, *separator.__all__,
           *prevalence.__all__, "__version__"]
