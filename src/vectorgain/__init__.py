"""Vector small-gain verification, composite gain synthesis and
trajectory-based validation for interconnected nonlinear systems."""

from .gains import (
    BracketError, Compose, ContractionVerdict, GainError, GainFn,
    GridSpec, Linear, LogExpSq, Max, Power, Scale, Zero, check_contraction,
    compose_chain, gain_from_json, gain_to_json, invert,
)
from .network import (
    CycleVerdict, GainMatrix, SmallGainReport, check_small_gain,
    gamma_apply, gas_witness_search, matrix_from_json, matrix_to_json,
    q_operator, support_circuits,
)
from .iteration import IterationResult, iterate, sandwich_oracle, lfp_bound_check
from .synthesis import (
    CompositeGain, OverallGain, SmallGainRequired, SynthesisInput, build_phi,
    overall_gain,
)
from .signals import Signal, signal_from_json, signal_to_json
from .models import (
    ModelError, SystemSpec, biochem_equilibrium, biochem_hypothesis,
    spec_from_json, spec_to_json,
)
from .simulate import (
    ConfigError, FiniteEscapeError, SimulationError, Trajectory,
    integrate_delay, integrate_ode, integrate_sampled, log_transform,
)
from .validate import (
    InconclusiveError, LyapunovSetup, check_asymptotic_gain, check_convergence,
    check_implication, quadratic_channels, recheck_violation,
)

__version__ = "0.1.0"
