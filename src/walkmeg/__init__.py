"""Exact simulation and optimization of entangling coin sequences.

A discrete-time quantum walk on the line entangles its internal coin qubit
with the walker position. Over a two-element coin set, the per-step coin
choice is a bit string; some strings drive every initial coin state to the
maximally mixed state, which is maximal walker-coin entanglement
independent of the input. This package simulates the walk exactly, treats
a sequence as a qubit channel, scores it by process fidelity against the
fully depolarizing channel, searches for optimal strings (exhaustively and
by annealing), and cross-checks the closed-form optimality conditions for
the {Hadamard, identity} coin set through an independent momentum-space
route.
"""

from . import channel, coins, metrics, momentum, results, search, sphere, walk
from .coins import *
from .walk import *
from .channel import *
from .momentum import *
from .metrics import *
from .search import *
from .results import *
from .sphere import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *coins.__all__,
    *walk.__all__,
    *channel.__all__,
    *momentum.__all__,
    *metrics.__all__,
    *search.__all__,
    *results.__all__,
    *sphere.__all__,
]
