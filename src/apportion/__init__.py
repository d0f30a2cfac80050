"""Exact-arithmetic proportional-representation seat apportionment.

Largest-remainder (Hare-Niemeyer), d'Hondt-Jefferson, and Sainte-Laguë
allocation in both their divisor-table and multiplicative forms, plus
two-stage (district-seeded) variants, a brute-force verification oracle,
and a CSV/JSON command-line front end.  All arithmetic is exact rational.
Each module lists its public names in its own ``__all__``; the package
re-exports those of ``types`` and ``methods`` (every engine, the two-stage
ones included) and republishes the union of all four lists.

The oracle and the JSON reader and writer load on first use (PEP 562), so
that a CLI run which needs neither does not pay for their import: the
package's ``__getattr__`` resolves those two modules, each public name they
declare and ``__all__``.
"""

import functools
import importlib
import os
import re

from . import methods, types
from .methods import *
from .types import *

__version__ = "0.1.0"

#: The modules loaded on first use.
_LAZY = ("oracle", "serialize")


@functools.cache
def _owners():
    """Each public name of a module in ``_LAZY``, mapped to that module.

    The names are read from the ``__all__`` list in the module's source, so
    that finding the module of a name imports no other module.
    """
    owners = {}
    for module in _LAZY:
        with open(os.path.join(__path__[0], f"{module}.py"), encoding="utf-8") as source:
            text = source.read()
        start = text.index("\n__all__ = [")
        names = re.findall(r'"(\w+)"', text[start:text.index("]", start)])
        owners.update(dict.fromkeys(names, module))
    return owners


def __getattr__(name):
    if name == "__all__":
        return sorted([*methods.__all__, *types.__all__, *_owners()])
    module = name if name in _LAZY else _owners().get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # by __name__, not "apportion": the package may be loaded under another name
    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if module == name else getattr(loaded, name)


def __dir__():
    return sorted(globals().keys() | {"__all__", *_LAZY, *_owners()})
