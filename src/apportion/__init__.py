"""Exact-arithmetic proportional-representation seat apportionment.

Largest-remainder (Hare-Niemeyer), d'Hondt-Jefferson, and Sainte-Laguë
allocation in both their divisor-table and multiplicative forms, plus
two-stage (district-seeded) variants, a brute-force verification oracle,
and a CSV/JSON command-line front end.  All arithmetic is exact rational.
Each module lists its public names in its own ``__all__``; the package
republishes their union.
"""

from . import methods, oracle, seeded, serialize, types
from .methods import *
from .oracle import *
from .seeded import *
from .serialize import *
from .types import *

__version__ = "0.1.0"

__all__ = sorted(
    methods.__all__ + oracle.__all__ + seeded.__all__ + serialize.__all__ + types.__all__
)
