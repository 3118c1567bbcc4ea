"""meanslab — bivariate means, sharp two-sided bounds, and their checkers.

The package evaluates a family of classical bivariate means (arithmetic,
geometric, harmonic, contraharmonic, centroidal, root-square, the two
Seifferts, the generalized logarithmic family, and the asinh-based mean
``M``), carries a catalog of sharp inequalities between them with
vectorised margin checks and sharpness probes, and verifies the power
series and monotonicity facts the bounds rest on.

Each module's ``__all__`` is its public surface, and the package exports
exactly the union of those lists: a name is made public in one place.
"""

from . import constants, errors, means, ratios, records, series
from .constants import *
from .errors import *
from .means import *
from .ratios import *
from .records import *
from .series import *

__version__ = "0.1.0"

__all__ = ["__version__", *constants.__all__, *errors.__all__, *means.__all__,
           *ratios.__all__, *records.__all__, *series.__all__]
