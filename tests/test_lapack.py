"""The LAPACK shim: scipy's extension loaded from its file, the ImportError
when scipy or the file is missing, scipy's own linalg package living
alongside it in either import order, and the in-place solves the stepper
relies on.

Each check that depends on what a process has imported runs in a fresh
interpreter, since this one has imported whatever earlier tests needed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shearbeam
from shearbeam._lapack import lapack

SRC = str(Path(shearbeam.__file__).resolve().parents[1])


def fresh(code: str) -> dict:
    """Run `code` in a new interpreter that imports the package from this
    tree; `code` leaves its findings in a dict named `out`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport json\nprint(json.dumps(out))"],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_package_import_leaves_scipy_linalg_unimported():
    out = fresh("import sys\n"
                "import shearbeam, shearbeam.cli\n"
                "from shearbeam import _lapack\n"
                "out = {'linalg': 'scipy.linalg' in sys.modules,\n"
                "       'registered': sys.modules['scipy.linalg._flapack'] is _lapack.lapack}\n")
    assert out == {"linalg": False, "registered": True}


@pytest.mark.parametrize("scipy", ["empty", "absent"])
def test_import_without_the_extension_raises_import_error(scipy, tmp_path):
    # find_spec("scipy") gives a package rooted at an empty directory, or
    # nothing at all; the package import must fail as an ImportError.
    spec = ("importlib.machinery.ModuleSpec('scipy', None, is_package=True)"
            if scipy == "empty" else "None")
    out = fresh("import importlib.machinery, importlib.util\n"
                "find_spec = importlib.util.find_spec\n"
                "def fake(name, *args):\n"
                "    if name != 'scipy':\n"
                "        return find_spec(name, *args)\n"
                f"    spec = {spec}\n"
                "    if spec is not None:\n"
                f"        spec.submodule_search_locations = [{str(tmp_path)!r}]\n"
                "    return spec\n"
                "importlib.util.find_spec = fake\n"
                "try:\n"
                "    import shearbeam\n"
                "    out = {}\n"
                "except Exception as exc:\n"
                "    out = {'type': type(exc).__name__, 'message': str(exc)}\n")
    assert out["type"] == "ImportError"
    if scipy == "empty":
        assert str(tmp_path / "linalg") in out["message"]
    else:
        assert "scipy is not installed" in out["message"]


def test_package_reuses_scipy_linalg_imported_first():
    out = fresh("import sys\n"
                "import scipy.linalg\n"
                "import shearbeam\n"
                "from shearbeam import _lapack\n"
                "out = {'reused': _lapack.lapack is sys.modules['scipy.linalg._flapack']}\n")
    assert out["reused"]


def test_scipy_linalg_works_after_the_package():
    out = fresh("import sys\n"
                "import numpy as np\n"
                "import shearbeam\n"
                "from shearbeam import _lapack\n"
                "import scipy.linalg\n"
                "ab = np.array([[0.0, 2.0, -1.0], [5.0, 4.0, 3.0], [1.0, 1.0, 0.0]])\n"
                "b = np.array([1.0, 2.0, 3.0])\n"
                "x = scipy.linalg.solve_banded((1, 1), ab, b)\n"
                "a = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)\n"
                "out = {'residual': float(np.abs(a @ x - b).max()),\n"
                "       'reused': sys.modules['scipy.linalg._flapack'] is _lapack.lapack}\n")
    assert out["residual"] < 1e-14
    # scipy imports the extension the shim registered rather than a second copy.
    assert out["reused"]


def test_solves_overwrite_a_contiguous_column_in_place():
    # `advance` takes each step's solution from the array it passes, so
    # every solve `BlockSystem.solve` makes must write a contiguous (n, 1)
    # b, not a copy of it; dtbtrs is reached at the scipy floor too.
    n = 6
    sub, sup = np.diag(np.ones(n - 1), -1), np.diag(np.full(n - 1, 2.0), 1)
    a = 4.0 * np.eye(n) + sub + sup
    # Band storage: (diagonal, subdiagonal) rows for uplo "L" and
    # (superdiagonal, diagonal) rows for uplo "U".
    lower = np.array([np.full(n, 4.0), np.r_[np.ones(n - 1), 0.0]])
    upper = np.array([np.r_[0.0, np.full(n - 1, 2.0)], np.full(n, 4.0)])
    lu, piv, info = lapack.dgbtrf(np.vstack([np.zeros(n), upper, lower[1]]), 1, 1)
    assert info == 0
    # uplo, trans, diag and overwrite_b as `BlockSystem.solve` passes them
    for solve, matrix in (
            (lambda b: lapack.dtbtrs(lower, b, "L", "N", "U", 1), np.eye(n) + sub),
            (lambda b: lapack.dtbtrs(upper, b, "U", "N", "U", 1), np.eye(n) + sup),
            (lambda b: lapack.dgbtrs(lu, 1, 1, b, piv, overwrite_b=1), a)):
        rhs = np.arange(1.0, n + 1)
        b = rhs.reshape(n, 1).copy()
        x, info = solve(b)
        assert info == 0
        assert np.shares_memory(x, b)
        np.testing.assert_allclose(matrix @ b[:, 0], rhs, rtol=1e-14)
