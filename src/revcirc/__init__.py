"""revcirc: reversible CCNOT gate-array circuits — evaluation, limiting
fitness distributions, large-scale sampling, and evolutionary search.

The package studies fixed-width arrays of CCNOT (Toffoli) gates: how the
fitness of uniformly random arrays against a Boolean target distributes as
the arrays grow long and wide, and how hill climbers and a genetic
algorithm navigate that landscape on the six-multiplexor benchmark.
"""

from . import core, fitness, sampling, search, theory
from .core import *
from .fitness import *
from .sampling import *
from .search import *
from .theory import *

__version__ = "0.1.0"

__all__ = sorted(
    core.__all__ + fitness.__all__ + sampling.__all__ + search.__all__ + theory.__all__
    + ["__version__"]
)
