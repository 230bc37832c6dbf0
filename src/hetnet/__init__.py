"""Sparse nodal-attribute models for heterogeneity in directed count networks.

Fits paired skip-layer networks, one for sender effects and one for
receiver effects, to a Poisson edge-count model, selecting the relevant
node attributes through a hierarchical L1 penalty.  Includes classical
baselines, a simulation benchmark harness, and Shapley attribution for
fitted models.  The package exports the ``__all__`` of each module below.
"""

from . import (baselines, importance, netdata, objective, optimizer, rng, simbench,
               skipnet)
from .netdata import *
from .skipnet import *
from .objective import *
from .optimizer import *
from .baselines import *
from .simbench import *
from .importance import *
from .rng import *

__all__ = [name for mod in (netdata, skipnet, objective, optimizer, baselines,
                            simbench, importance, rng) for name in mod.__all__]

__version__ = "0.1.0"
