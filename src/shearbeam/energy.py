"""Discrete energy: the decay certificate and empirical rate estimation.

The scheme's stability certificate is the quadratic form

    E^n = 1/2 * ( rho*|xi|^2 + alpha*|u_x|^2 + lam*|phi - u|^2
                  + rho1*|Phi|^2 + K*|phi_x + psi|^2 + b*|psi_x|^2
                  + rho3*|vartheta|^2 + delta*|w_x|^2 )

(all L2 norms), which the implicit step never increases.  `check_monotone`
verifies that on a recorded series; `fit_decay` estimates the exponential
rate from an affine fit of log E against t (`fit_line`, which
`mms.observed_order_slope` shares).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, PhysicalParams
from .stepper import State, _energy_stencil, discrete_energy


@dataclass(frozen=True)
class EnergySeries:
    """Sampled (t_n, E^n) pairs with strictly increasing times."""

    t: np.ndarray
    E: np.ndarray


@dataclass(frozen=True)
class DecaySummary:
    """Empirical exponential-decay estimate E(t) ~ sigma0 * exp(-sigma1 t).

    `fit_residual` is the largest absolute deviation of log E from the
    affine fit, normalized by the spread of log E over the window (by
    max(1, |log E|) when the window is flat).
    """

    sigma1_hat: float
    sigma0_hat: float
    fit_residual: float


class EnergyRecorder:
    """Run observer recording (n, t, E) at every step; a non-finite E
    raises ConfigError."""

    def __init__(self, params: PhysicalParams):
        self.params = params
        self.steps: list[int] = []
        self.times: list[float] = []
        self.energies: list[float] = []
        self._mesh = self._stencil = None

    def __call__(self, state: State) -> None:
        if state.mesh is not self._mesh:  # E, built once per mesh
            self._mesh = state.mesh
            self._stencil = _energy_stencil(self.params, state.mesh.h)
        energy = discrete_energy(state, self.params, self._stencil)
        if not math.isfinite(energy):
            raise ConfigError(
                f"step {state.n} (t = {state.t:.9g}): the energy is not finite")
        self.steps.append(state.n)
        self.times.append(state.t)
        self.energies.append(energy)

    def series(self) -> EnergySeries:
        return EnergySeries(np.asarray(self.times), np.asarray(self.energies))


def check_monotone(series: EnergySeries, tol_rel: float) -> list[int]:
    """Indices n with E^n > E^{n-1} * (1 + tol_rel); empty list means the
    decay property holds on the whole series."""
    E = np.asarray(series.E, dtype=float)
    if E.size == 0:
        raise ConfigError("empty energy series")
    bad = np.nonzero(E[1:] > E[:-1] * (1.0 + tol_rel))[0] + 1
    return [int(i) for i in bad]


def neg_log_over_t(series: EnergySeries) -> np.ndarray:
    """The series -log(E^n)/t_n (NaN where t_n = 0, +inf where E^n <= 0)."""
    t = np.asarray(series.t, dtype=float)
    with np.errstate(all="ignore"):
        out = -np.log(np.maximum(series.E, 0.0)) / t
    out[t == 0.0] = np.nan
    return out


def fit_line(x: np.ndarray, y: np.ndarray):
    """Least-squares line through points (x, y), two x distinct: its slope,
    its value at x = 0 and its values at the x.  Fitted in closed form
    (np.polyfit's SVD pages in 0.8 MiB of library code) on x centred and
    scaled to [-1, 1], so that no sum over powers of x overflows; the slope
    and intercept may leave double range, without a warning.  Its sums are
    numpy's, not BLAS dots, so its bits ignore the BLAS thread count."""
    mid = x.min() / 2.0 + x.max() / 2.0
    half = x.max() - mid
    s = (x - mid) / half
    ds, dy = s - s.mean(), y - y.mean()
    a = (ds * dy).sum() / (ds * ds).sum()
    b = y.mean() - a * s.mean()
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 at mid = 0
        slope = a / half
        return slope, b - slope * mid, a * s + b


def fit_decay(series: EnergySeries, window: tuple[float, float]) -> DecaySummary:
    """Least-squares affine fit of log E against t over a time window.

    Uses the samples with window[0] <= t <= window[1] and E > 0; raises
    ConfigError for a window without window[0] < window[1], when fewer
    than 3 samples remain, and when the rate or sigma0_hat leaves double
    range.
    """
    lo, hi = window
    if not lo < hi:
        raise ConfigError(f"window [{lo}, {hi}] is empty: its start is not below its end")
    t = np.asarray(series.t, dtype=float)
    E = np.asarray(series.E, dtype=float)
    keep = (t >= lo) & (t <= hi) & (E > 0.0)
    if keep.sum() < 3:
        raise ConfigError(
            f"window [{lo}, {hi}] holds {int(keep.sum())} positive samples; need >= 3")
    logE = np.log(E[keep])
    slope, log_sigma0, fitted = fit_line(t[keep], logE)
    with np.errstate(over="ignore"):
        sigma0 = np.exp(log_sigma0)
    for name, value in (("sigma1_hat", slope), ("sigma0_hat", sigma0)):
        if not math.isfinite(value):
            raise ConfigError(f"window [{lo}, {hi}]: {name} leaves double range")
    span = float(logE.max() - logE.min()) or max(1.0, np.abs(logE).max())
    residual = float(np.abs(logE - fitted).max() / span)
    return DecaySummary(sigma1_hat=float(-slope), sigma0_hat=float(sigma0),
                        fit_residual=residual)
