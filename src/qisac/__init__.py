"""QISAC: quantum-optical integrated sensing and communication simulator.

Models a BPSK coherent-state homodyne link as a two-component Gaussian
mixture, jointly estimates the channel phase and detects symbols via EM, and
retunes the local-oscillator phase under a block Fisher-information
constraint.  See the module docstrings of :mod:`qisac.physics`,
:mod:`qisac.analytics`, :mod:`qisac.em`, :mod:`qisac.controller`, and
:mod:`qisac.montecarlo` for the model and algorithms, and :mod:`qisac.cli`
for the command-line interface.
"""

__version__ = "0.1.0"

from .analytics import (
    FisherReport,
    ParetoPoint,
    ber_theory,
    fc_max,
    fisher_argmax,
    fisher_block,
    fisher_high_snr,
    fisher_symbol,
    fisher_symbol_mc,
    offset_table,
    optimal_angles,
    pareto_known_theta,
    q_function,
)
from .controller import AlgoConfig, RunTrace, run_qisac, select_target, update_psi, wrap_pi
from .em import EmConfig, EmResult, e_step, m_step, m_step_objective, run_em
from .errors import ConfigError, InfeasibleError, QisacError
from .montecarlo import (
    ExperimentSpec,
    TradeoffCurve,
    run_convergence_experiment,
    run_tradeoff_sweep,
    score_ber,
    steady_mean,
    steady_psi,
    steady_window,
)
from .physics import (
    ChannelParams,
    ObservationBlock,
    block_mean_derivs,
    block_means,
    canonical_phase,
    sample_block,
    trial_seed,
)

__all__ = [
    "__version__",
    "AlgoConfig",
    "ChannelParams",
    "ConfigError",
    "EmConfig",
    "EmResult",
    "ExperimentSpec",
    "FisherReport",
    "InfeasibleError",
    "ObservationBlock",
    "ParetoPoint",
    "QisacError",
    "RunTrace",
    "TradeoffCurve",
    "ber_theory",
    "block_mean_derivs",
    "block_means",
    "canonical_phase",
    "e_step",
    "fc_max",
    "fisher_argmax",
    "fisher_block",
    "fisher_high_snr",
    "fisher_symbol",
    "fisher_symbol_mc",
    "m_step",
    "m_step_objective",
    "offset_table",
    "optimal_angles",
    "pareto_known_theta",
    "q_function",
    "run_convergence_experiment",
    "run_em",
    "run_qisac",
    "run_tradeoff_sweep",
    "sample_block",
    "score_ber",
    "steady_mean",
    "steady_psi",
    "steady_window",
    "select_target",
    "trial_seed",
    "update_psi",
    "wrap_pi",
]
