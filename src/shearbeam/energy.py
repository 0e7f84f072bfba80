"""Discrete energy: the decay certificate and empirical rate estimation.

The scheme's stability certificate is the quadratic form

    E^n = 1/2 * ( rho*|xi|^2 + alpha*|u_x|^2 + lam*|phi - u|^2
                  + rho1*|Phi|^2 + K*|phi_x + psi|^2 + b*|psi_x|^2
                  + rho3*|vartheta|^2 + delta*|w_x|^2 )

(all L2 norms), which the implicit step never increases.  `check_monotone`
verifies that on a recorded series; `fit_decay` estimates the exponential
rate from an affine fit of log E against t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .femesh import UniformMesh
from .model import DegenerateWindow, PhysicalParams
from .stepper import State, state_energy


def discrete_energy(state: State, mesh: UniformMesh, params: PhysicalParams) -> float:
    """Energy of one discrete state; positive definite for positive params.

    Evaluated exactly, on the step's block stencils (`stepper.state_energy`).
    """
    if (mesh.M, mesh.L) != (state.mesh.M, state.mesh.L):
        raise ValueError(f"state lives on {state.mesh!r}, not on {mesh!r}")
    return state_energy(state, params)


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
    fit_window: tuple[float, float]
    fit_residual: float


class EnergyRecorder:
    """Run observer recording (n, t, E) at every step."""

    def __init__(self, mesh: UniformMesh, params: PhysicalParams):
        self.mesh = mesh
        self.params = params
        self.steps: list[int] = []
        self.times: list[float] = []
        self.energies: list[float] = []

    def __call__(self, state: State) -> None:
        self.steps.append(state.n)
        self.times.append(state.t)
        self.energies.append(discrete_energy(state, self.mesh, self.params))

    def series(self) -> EnergySeries:
        return EnergySeries(np.asarray(self.times), np.asarray(self.energies))


def check_monotone(series: EnergySeries, tol_rel: float) -> list[int]:
    """Indices n with E^n > E^{n-1} * (1 + tol_rel); empty list means the
    decay property holds on the whole series."""
    E = np.asarray(series.E, dtype=float)
    if E.size == 0:
        raise ValueError("empty energy series")
    bad = np.nonzero(E[1:] > E[:-1] * (1.0 + tol_rel))[0] + 1
    return [int(i) for i in bad]


def neg_log_over_t(series: EnergySeries) -> np.ndarray:
    """The series -log(E^n)/t_n (NaN where t_n = 0)."""
    t = np.asarray(series.t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.log(series.E) / t
    out[t == 0.0] = np.nan
    return out


def fit_decay(series: EnergySeries, window: tuple[float, float]) -> DecaySummary:
    """Least-squares affine fit of log E against t over a time window.

    Uses the samples with window[0] <= t <= window[1] and E > 0; raises
    DegenerateWindow when fewer than 3 remain.
    """
    t = np.asarray(series.t, dtype=float)
    E = np.asarray(series.E, dtype=float)
    lo, hi = window
    keep = (t >= lo) & (t <= hi) & (E > 0.0)
    if keep.sum() < 3:
        raise DegenerateWindow(
            f"window [{lo}, {hi}] holds {int(keep.sum())} positive samples; need >= 3")
    tw, logE = t[keep], np.log(E[keep])
    slope, intercept = np.polyfit(tw, logE, 1)
    dev = np.abs(logE - (slope * tw + intercept))
    span = float(logE.max() - logE.min())
    if span > 0.0:
        residual = float(dev.max() / span)
    else:
        residual = float(dev.max() / max(1.0, np.abs(logE).max()))
    return DecaySummary(sigma1_hat=float(-slope), sigma0_hat=float(np.exp(intercept)),
                        fit_window=(float(lo), float(hi)), fit_residual=residual)
