"""The LAPACK routines the package calls, loaded without scipy's linalg package.

`stepper` factorizes and solves its banded step matrix with `dgbtrf` and
`dgbtrs`; `transform` solves its tridiagonal offset problem with `dgtsv`.
All three live in scipy's f2py extension `linalg/_flapack`, which needs
nothing of scipy but numpy.  Importing scipy's linalg package to reach
them costs more than the rest of the package's start-up together, so the
extension file is loaded by itself, in the `linalg` directory of the
location `importlib.util.find_spec` gives for scipy without importing it.
It is registered under the dotted name scipy imports it by, so a later
import of scipy's linalg package reuses it; when that package was
imported first, its module is the one used.

This is the only way in.  When scipy is not installed, or its `linalg`
directory holds no `_flapack` extension file (an editable install that
builds its extensions elsewhere, say), importing the package raises
ImportError naming the directory searched.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType

# The extension's dotted name, the one scipy's own import gives it.
_NAME = "scipy.linalg._flapack"


def _flapack() -> ModuleType:
    """scipy's `_flapack` extension: the module registered under its name,
    or else the one loaded from the file in scipy's `linalg` directory."""
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed; its LAPACK extension _flapack is needed")
    directory = os.path.join(scipy.submodule_search_locations[0], "linalg")
    finder = importlib.machinery.FileFinder(
        directory, (importlib.machinery.ExtensionFileLoader,
                    importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(_NAME)
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack is not in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_NAME] = module
    return module


lapack = _flapack()
