"""The LAPACK shim: the direct load of scipy's extension, its fallback, and
scipy's own linalg package living alongside it.

Each check that depends on what a process has imported runs in a fresh
interpreter, since this one has imported whatever earlier tests needed.
"""

import importlib.machinery
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import shearbeam
from shearbeam import _lapack

SRC = str(Path(shearbeam.__file__).resolve().parents[1])

# Solves on both paths: the step matrix on a fixed right-hand side, with
# row interchanges at M = 40 and by the two triangular sweeps at M = 320
# (none), and the offset problem at M = 2 (one unknown) and M = 40.
# Printed as hex bytes so that the comparison is bit for bit.
SOLVES = """
import numpy as np
from shearbeam import assemble, baseline_params, solve_eta
from shearbeam.femesh import UniformMesh
from shearbeam.transform import EtaProblem

params = baseline_params()
out = {}
for key, M, dt in (("step", 40, 0.01), ("step-pivot-free", 320, 1.25e-4)):
    system = assemble(params, UniformMesh(M, params.L), dt)
    assert (system._lu is None) is (key == "step-pivot-free")
    rhs = np.random.default_rng(0).normal(size=system.n_unknowns)
    out[key] = system.solve(rhs).tobytes().hex()
for M in (2, 40):
    problem = EtaProblem(lambda x: np.sin(np.pi * x), lambda x: x * (1 - x),
                         lambda x: np.sin(2 * np.pi * x), params)
    out[f"eta{M}"] = solve_eta(problem, UniformMesh(M, params.L)).tobytes().hex()
"""


def fresh(code: str) -> dict:
    """Run `code` in a new interpreter that imports the package from this
    tree; `code` leaves its findings in a dict named `out`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport json\nprint(json.dumps(out))"],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def extension_present() -> bool:
    """Whether scipy ships `linalg/_flapack` as an extension file, found
    without the shim's finder."""
    root, = importlib.util.find_spec("scipy").submodule_search_locations
    return any(os.path.isfile(os.path.join(root, "linalg", "_flapack" + suffix))
               for suffix in importlib.machinery.EXTENSION_SUFFIXES)


def test_package_import_leaves_scipy_linalg_unimported():
    out = fresh("import sys\n"
                "import shearbeam, shearbeam.cli\n"
                "from shearbeam import _lapack\n"
                "out = {'direct': _lapack.loaded_directly,\n"
                "       'linalg': 'scipy.linalg' in sys.modules}\n")
    # Where scipy lays its files out as expected, the direct path is the
    # one taken, and it does not import scipy's linalg package.
    assert out["direct"] or not extension_present()
    assert out["linalg"] is not out["direct"]


def test_fallback_gives_the_same_bits():
    # The direct load fails when it cannot locate scipy, so the shim falls
    # back to scipy's linalg package (which the import system finds).
    fallback = fresh("import importlib.util\n"
                     "find_spec = importlib.util.find_spec\n"
                     "def refuse(name, *args):\n"
                     "    if name == 'scipy':\n"
                     "        raise ImportError('direct load refused')\n"
                     "    return find_spec(name, *args)\n"
                     "importlib.util.find_spec = refuse\n"
                     "from shearbeam import _lapack\n"
                     "assert not _lapack.loaded_directly\n"
                     + SOLVES)
    direct = fresh(SOLVES)
    assert set(fallback) == {"step", "step-pivot-free", "eta2", "eta40"}
    for key, value in fallback.items():
        assert np.array_equal(np.frombuffer(bytes.fromhex(value)),
                              np.frombuffer(bytes.fromhex(direct[key]))), key


@pytest.mark.parametrize("failure", ["raises", "lacks-a-routine"])
def test_load_falls_back(failure, monkeypatch):
    def direct():
        if failure == "raises":
            raise ImportError("direct load refused")
        return types.ModuleType("empty")

    monkeypatch.setattr(_lapack, "_load_direct", direct)
    namespace, loaded_directly = _lapack.load()
    import scipy.linalg.lapack
    assert not loaded_directly and namespace is scipy.linalg.lapack
    assert all(callable(getattr(namespace, name)) for name in _lapack.ROUTINES)


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
                "       'direct': _lapack.loaded_directly,\n"
                "       'reused': sys.modules['scipy.linalg._flapack'] is _lapack.lapack}\n")
    assert out["residual"] < 1e-14
    # scipy imports the extension the shim registered rather than a second copy.
    assert out["reused"] or not out["direct"]
