"""Fidelity bounds and pulse synthesis for cavity-assisted Raman emission.

The package models a driven three-level emitter in a one-sided cavity that
converts a stationary qubit into a traveling photonic qubit of a chosen
temporal shape. It computes the depletion-rate bound on the conversion
efficiency, synthesizes the photon envelope and drive pulse in closed
form, optimizes the envelope on deterministic grids, and verifies every
result against independent amplitude-equation and master-equation
integrations.
"""

__version__ = "0.1.0"

from .bounds import (BoundResult, avg_fidelity, compute_bounds, e_max,
                     fidelity, simplified_bound, slow_pulse_bound)
from .depletion import (DepletionProfile, analytic_profile, depletion_rate,
                        integrated_depletion_analytic,
                        integrated_depletion_numeric, phase_evolution)
from .errors import (DomainError, LayoutError, ModelError, NumericError,
                     PoleError, ProtocolError, RamanPulseError,
                     ValidationError)
from .model import (CombinedRates, EmitterParams, RawRates, combine_rates,
                    cooperativity, emitter_from_raw, ghz, load_params,
                    params_from_dict)
from .optimize import (OptimizationConfig, OptimizationResult, desk_config,
                       full_config, objective, optimize_duration,
                       optimize_shape)
from .protocol import (PROTOCOLS, ProtocolResult, ProtocolState, apply_gate,
                       emit, run_protocol)
from .pulse import (CosineSeriesPulse, Envelope, as_envelope,
                    constrained_series, load_pulse, save_pulse, sin2_pulse,
                    write_samples)
from .trajectory import (ClosedFormSolution, InitialState, Trajectory,
                         closed_form_trajectory, drive_omega, max_efficiency,
                         virtual_coupling)
from .verify import (CompareReport, DensityMatrix, LindbladResult,
                     OdeSolution, compare, integrate_nonhermitian,
                     lindblad_simulate)
