"""Optimal-transport recommendation for item cold start.

Preference histograms over interacted items are pushed onto unseen
items through entropy-smoothed optimal transport, either directly
(one closed-form inference per user) or through a low-rank coupled
factorization trained by dual block-coordinate descent.
"""

from . import dataio, exceptions, metrics, transport, wcf, wfilter
from .dataio import *
from .exceptions import *
from .metrics import *
from .transport import *
from .wcf import *
from .wfilter import *

__version__ = "0.1.0"

__all__ = [*exceptions.__all__, *transport.__all__, *wfilter.__all__, *wcf.__all__,
           *dataio.__all__, *metrics.__all__, "__version__"]
