"""Constitutive parameters, run configuration, initial data, and validation.

The simulated structure is a one-dimensional shear beam (the roadbed)
suspended from an elastic cable through a distributed bed of springs, with
a rate-type thermal field damping the transverse motion.  Four fields live
on (0, L): the cable displacement u, the deck deflection phi, the
cross-section rotation psi, and the integrated thermal displacement w
(the temperature is recovered as w_t).  Every constitutive constant is
strictly positive; this is what makes the coupled system dissipative and
the implicit step matrix invertible, so validation rejects anything else.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ScalarField = Callable[[np.ndarray], np.ndarray]


# --- Errors ---

class ConfigError(ValueError):
    """The run's inputs are unusable: a configuration that is missing,
    unreadable or malformed, a value that violates a well-posedness
    precondition, or data that leave double range (exit 2)."""


class SolverFailure(RuntimeError):
    """A linear solve failed or its residual exceeded tolerance (exit 4)."""


# --- Domain types ---

@dataclass(frozen=True)
class PhysicalParams:
    """The twelve constitutive constants plus the beam length, all > 0."""

    rho: float      # cable mass density
    alpha: float    # elastic modulus of the cable string
    lam: float      # suspender stiffness (config key "lambda")
    mu: float       # cable damping
    rho1: float     # beam mass density
    K: float        # shear modulus
    gamma: float    # beam damping
    beta: float     # thermoelastic coupling
    b: float        # bending stiffness
    rho3: float     # thermal inertia
    delta: float    # thermal conductivity
    kappa: float    # rate-type thermal dissipation
    L: float = 1.0  # beam length


@dataclass(frozen=True)
class SimulationConfig:
    """Discretization and output settings for one run."""

    M: int                                  # number of elements, >= 2
    dt: float                               # time step
    T: float                                # final time
    probe_points: tuple[float, ...] = ()    # x locations for time series
    snapshot_stride: int = 1                # steps between field snapshots
    output_dir: str = "."


@dataclass(frozen=True)
class InitialData:
    """Initial fields for the integrated-variable formulation.

    All seven must be finite and vanish at x = 0 and x = L (the clamped
    ends); `stepper.initial_state` checks both.
    """

    u0: ScalarField     # cable displacement
    u1: ScalarField     # cable velocity
    phi0: ScalarField   # deck deflection
    phi1: ScalarField   # deck velocity
    psi0: ScalarField   # rotation
    w0: ScalarField     # integrated thermal displacement
    w1: ScalarField     # its rate (= initial temperature)


# Config-file key -> PhysicalParams field.  "lambda" is a Python keyword,
# hence the one rename.
PARAM_KEYS = {
    "rho": "rho", "alpha": "alpha", "lambda": "lam", "mu": "mu",
    "rho1": "rho1", "K": "K", "gamma": "gamma", "beta": "beta",
    "b": "b", "rho3": "rho3", "delta": "delta", "kappa": "kappa", "L": "L",
}
CONFIG_KEYS = tuple(PARAM_KEYS) + ("M", "dt", "T", "probes",
                                   "snapshot_stride", "output_dir")


# --- Validation ---

# The most memory, in bytes, that `validate` lets a run plan to hold (see
# `run_bytes`).  A larger run is rejected before anything is allocated; a
# run under the cap can still meet a MemoryError, which the CLI reports as
# a config error as well.
MAX_RUN_BYTES = 8 * 2**30

# Bytes the recorders keep per step (tracemalloc, CPython 3.11): one
# (n, t, E) energy row, and one (t, u, phi, psi, w) row per probe point.
_ENERGY_ROW_BYTES = 104
_PROBE_ROW_BYTES = 184


def positive_real(name: str, value) -> float:
    """float(value) for an int (bool excluded) or a float that is finite and
    > 0; any other value raises ConfigError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be an int or a float (got {value!r})")
    try:
        real = float(value)
    except OverflowError:
        raise ConfigError(f"{name} is an int beyond double range") from None
    if not 0.0 < real < math.inf:
        raise ConfigError(f"{name} must be strictly positive and finite (got {value!r})")
    return real


def whole_number(name: str, value, least: int) -> int:
    """value as an int >= least, of any integer type (numpy's too) but bool;
    any other value, a float included, raises ConfigError naming `name`."""
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None or count < least:
        raise ConfigError(f"{name} must be an integer >= {least} (got {value!r})")
    return count


def element_count(M) -> int:
    """M as an int; raises ConfigError unless it is an integer >= 2."""
    return whole_number("M", M, 2)


def probe_point(x, L: float) -> float:
    """float(x) for a probe point in (0, L); ConfigError otherwise."""
    if (real := positive_real("probe point", x)) >= L:
        raise ConfigError(f"probe point {real} outside (0, {L})")
    return real


def num_steps(config: SimulationConfig) -> int:
    """Number of implicit steps: round(T/dt), in floats.  The run reports
    results at N*dt, which by validation lies within one dt of T."""
    return int(round(float(config.T) / float(config.dt)))


def run_bytes(config: SimulationConfig, recorded: bool = True) -> int:
    """Estimated bytes a run holds: the (19, 4(M-1)) band and its LU
    factor, four (M+1, 8) states and two (M-1, 24) windows and, when
    `recorded` (the recorders of `simulate`), the snapshot fields kept until
    the end (ceil(N/stride) + 1 arrays of shape (M+1, 4)) and the per-step
    energy and probe rows.
    `config` must pass `validate`'s other checks first (finite T/dt,
    stride >= 1)."""
    M, n, stride = int(config.M), num_steps(config), int(config.snapshot_stride)
    nbytes = 8 * (2 * 19 * 4 * (M - 1) + 4 * 8 * (M + 1) + 2 * 24 * (M - 1))
    if recorded:
        snapshots = -(-n // stride) + 1
        nbytes += 8 * 4 * (M + 1) * snapshots
        nbytes += (n + 1) * (_ENERGY_ROW_BYTES
                             + _PROBE_ROW_BYTES * len(config.probe_points))
    return nbytes


def validate(params: PhysicalParams, config: SimulationConfig,
             recorded: bool = True) -> None:
    """Check every invariant of a run's inputs.

    Raises ConfigError naming the offending field, also for more steps
    than MAX_RUN_BYTES holds energy rows and when `run_bytes(config,
    recorded)` exceeds MAX_RUN_BYTES.
    """
    for key, attr in PARAM_KEYS.items():
        positive_real(f"parameter '{key}'", getattr(params, attr))

    element_count(config.M)

    dt, T = positive_real("dt", config.dt), positive_real("T", config.T)
    if T / dt == math.inf:
        raise ConfigError(f"T/dt is not finite (T={config.T!r}, dt={config.dt!r})")
    n = num_steps(config)
    if n < 1:
        raise ConfigError(f"T = {config.T} is less than half a step of {config.dt}: "
                          "the run would take no step")
    if abs(n * dt - T) > dt:
        raise ConfigError(
            f"T = {config.T} is not within one dt of a whole number of steps of {config.dt}")

    whole_number("snapshot_stride", config.snapshot_stride, 1)

    probes = [probe_point(x, float(params.L)) for x in config.probe_points]
    for i, x in enumerate(probes):
        if x in probes[:i]:
            raise ConfigError(f"probe point {x} given twice")

    check_run_bytes(run_bytes(config, recorded), f"M={config.M} and {n} steps")
    if n > MAX_RUN_BYTES // _ENERGY_ROW_BYTES:
        raise ConfigError(f"dt = {config.dt!r} takes {n:.3g} steps to T = {config.T!r}, "
                          f"above the {MAX_RUN_BYTES // _ENERGY_ROW_BYTES} a run may take")


def check_run_bytes(nbytes: int, what: str) -> None:
    """Raise ConfigError when `what` would hold more than MAX_RUN_BYTES."""
    if nbytes > MAX_RUN_BYTES:
        gib = nbytes / 2**30 if nbytes.bit_length() < 1000 else math.inf
        raise ConfigError(
            f"run too large: {what} would hold about {gib:.3g} GiB, "
            f"above the {MAX_RUN_BYTES / 2**30:g} GiB cap")


# --- Stock data ---

def baseline_params() -> PhysicalParams:
    """Stiffly coupled benchmark constants: alpha=6, rho1=2, K=365, rest 1."""
    return PhysicalParams(rho=1.0, alpha=6.0, lam=1.0, mu=1.0, rho1=2.0,
                          K=365.0, gamma=1.0, beta=1.0, b=1.0, rho3=1.0,
                          delta=1.0, kappa=1.0, L=1.0)


def sine_initial_data(L: float = 1.0) -> InitialData:
    """All seven initial fields equal to sin(pi x / L)."""
    s = lambda x: np.sin(np.pi * np.asarray(x) / L)
    return InitialData(u0=s, u1=s, phi0=s, phi1=s, psi0=s, w0=s, w1=s)


# --- Config file parsing ---

def _parse(key: str, raw: str, convert=float):
    """One value of `key`: a number, or a 64-bit integer when `convert` is int."""
    try:
        value = convert(raw)
        if convert is int and not -2**63 <= value < 2**63:
            raise ValueError
        return value
    except ValueError:
        kind = "a 64-bit integer" if convert is int else "a number"
        raise ConfigError(f"key '{key}': cannot parse '{raw}' as {kind}") from None


def comma_list(key: str, raw: str, convert=float) -> list:
    """The items of a comma-separated value of `key`; blank items are skipped."""
    return [_parse(key, tok.strip(), convert) for tok in raw.split(",") if tok.strip()]


def parse_config(path: str | Path, overrides: dict[str, str | None] | None = None
                 ) -> tuple[PhysicalParams, SimulationConfig]:
    """Read a `key = value` configuration file.

    Recognized keys: rho, alpha, lambda, mu, rho1, K, gamma, beta, b, rho3,
    delta, kappa, L, M, dt, T, probes (comma-separated), snapshot_stride,
    output_dir.  Blank lines and lines starting with '#' are ignored; a
    comment is a whole line, so a '#' in a value is an error naming the
    key and the line.  Unknown keys are errors.  `overrides` maps keys to
    raw text that replaces the file's value (None entries are skipped); it
    is applied after the file has been checked, so it cannot supply a
    missing key, and parsed exactly like the file, '#' included as text.
    The returned pair is not yet validated.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None

    values: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got '{line}'")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{ln}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"{path}:{ln}: duplicate key '{key}'")
        if "#" in raw:
            raise ConfigError(f"{path}:{ln}: key '{key}': '#' starts a comment "
                              "only at the start of a line")
        values[key] = raw

    required = tuple(PARAM_KEYS) + ("M", "dt", "T")
    missing = [k for k in required if k not in values]
    if missing:
        raise ConfigError(f"{path}: missing keys: {', '.join(missing)}")

    for key, raw in (overrides or {}).items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key '{key}'")
        if raw is not None:
            values[key] = raw

    params = PhysicalParams(**{PARAM_KEYS[k]: _parse(k, values[k]) for k in PARAM_KEYS})
    config = SimulationConfig(
        M=_parse("M", values["M"], int),
        dt=_parse("dt", values["dt"]),
        T=_parse("T", values["T"]),
        probe_points=tuple(comma_list("probes", values.get("probes", ""))),
        snapshot_stride=_parse("snapshot_stride", values.get("snapshot_stride", "1"), int),
        output_dir=values.get("output_dir", "."),
    )
    return params, config
