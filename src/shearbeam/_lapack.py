"""The LAPACK routines the package calls, loaded without scipy's linalg package.

`stepper` factorizes and solves its banded step matrix with `dgbtrf` and
`dgbtrs`; `transform` solves its tridiagonal offset problem with `dgtsv`.
All three live in scipy's f2py extension `linalg/_flapack`, which needs
nothing of scipy but numpy.  Importing scipy's linalg package to reach
them costs more than the rest of the package's start-up together (it
pulls in scipy's array-API layer and, through it, parts of numpy the
package never uses), so the extension is loaded straight from scipy's
install location, which `importlib.util.find_spec` gives without
importing scipy.  It is registered under the dotted name scipy imports it
by, so a later import of scipy's linalg package reuses it instead of
loading it again.

When that fails for any reason (a scipy that lays its files out
differently, say) or the module lacks one of the routines, the same f2py
functions are taken from scipy's `linalg.lapack`; both paths give the
same bits.  `loaded_directly` tells which one was taken.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType

# The package holding the extension, as a path from scipy's root; the
# extension's dotted name is the one scipy's own import gives it.
_PACKAGE = ("scipy", "linalg")
_NAME = ".".join(_PACKAGE) + "._flapack"
ROUTINES = ("dgbtrf", "dgbtrs", "dgtsv")


def _load_direct() -> ModuleType:
    """scipy's `_flapack` extension, loaded from its file without importing
    scipy (or the module already registered under its name)."""
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    root, = importlib.util.find_spec(_PACKAGE[0]).submodule_search_locations
    finder = importlib.machinery.FileFinder(
        os.path.join(root, *_PACKAGE[1:]),
        (importlib.machinery.ExtensionFileLoader,
         importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(_NAME)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_NAME] = module
    return module


def load() -> tuple[ModuleType, bool]:
    """(namespace holding `ROUTINES`, whether it was loaded directly)."""
    try:
        module = _load_direct()
        if all(hasattr(module, name) for name in ROUTINES):
            return module, True
    except Exception:
        pass
    from scipy.linalg import lapack as fallback
    return fallback, False


lapack, loaded_directly = load()
