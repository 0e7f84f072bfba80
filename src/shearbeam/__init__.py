"""Implicit P1 finite-element simulator for a thermally damped shear beam
suspended from an elastic cable, with energy-decay diagnostics and a
manufactured-solution verification harness."""

from .model import (ConfigError, InitialData, PhysicalParams,
                    SimulationConfig, SolverFailure, baseline_params,
                    parse_config, sine_initial_data, validate)
from .femesh import UniformMesh, interpolate_fields, l2_error, load_vector
from .transform import EtaProblem, solve_eta
from .stepper import (BlockSystem, ProbeRecorder, SnapshotRecorder, State,
                      advance, assemble, initial_state, run)
from .energy import (DecaySummary, EnergyRecorder, EnergySeries,
                     check_monotone, discrete_energy, fit_decay,
                     neg_log_over_t)
from .mms import (ConvergenceRow, ManufacturedCase, convergence_table,
                  error_norm, initial_data, observed_order_slope,
                  reference_case, run_level)

__version__ = "0.1.0"
