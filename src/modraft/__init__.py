"""modraft: a parametric drawing-module kernel.

A drawing is an ordered set of modules; each module keeps a typed property
set as its primary data and a fully derived geometric part that is
regenerated — deterministically, to the byte — whenever a property changes.
On top of the kernel sit prototype libraries, specification aggregation
across drawing files, electronic-catalog ingestion, lightning-protection
zone computation, content signatures and a viewport SVG renderer.
"""

from .canon import *
from .core import *
from .errors import *
from .geometry import *
from .integrity import *
from .lightning import *
from .persistence import *
from .properties import *
from .render import *
from .speccing import *

__version__ = "0.1.0"

__all__ = ["__version__", *canon.__all__, *core.__all__, *errors.__all__,
           *geometry.__all__, *integrity.__all__, *lightning.__all__, *persistence.__all__,
           *properties.__all__, *render.__all__, *speccing.__all__]
