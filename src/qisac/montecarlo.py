"""Multi-trial experiment harness: convergence runs and trade-off sweeps.

Trials are embarrassingly parallel: each gets an independent RNG stream
derived from the master seed and its trial index, blocks within a trial get
per-iteration sub-streams, and results are aggregated by trial index so the
output never depends on completion order (or on the worker count).
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .analytics import ParetoPoint, fc_max, pareto_known_theta
from .controller import AlgoConfig, RunTrace, run_qisac
from .errors import QisacError
from .physics import ChannelParams, sample_block, trial_seed

__all__ = [
    "ExperimentSpec",
    "ConvergenceResult",
    "SweepPoint",
    "TradeoffCurve",
    "score_ber",
    "steady_window",
    "median",
    "quantile",
    "run_convergence_experiment",
    "run_tradeoff_sweep",
]

log = logging.getLogger(__name__)

# Fraction of the trace treated as "steady state" when reading off tails.
_STEADY_FRAC = 0.2


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment.

    sweep, when present, lists (gamma_frac, Na, N) combinations for the
    trade-off harness; gamma_frac is relative to the achievable Fisher
    maximum of that combination.
    """

    params: ChannelParams
    algo: AlgoConfig
    n_block: int
    trials: int
    seed: int
    sweep: tuple[tuple[float, float, int], ...] | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.n_block < 1:
            raise ValueError("n_block must be >= 1")
        if self.sweep is not None:
            for gf, na, n in self.sweep:
                if not 0 <= gf <= 1:
                    raise ValueError(f"gamma_frac must lie in [0, 1], got {gf}")
                if n < 1:
                    raise ValueError(f"sweep block length must be >= 1, got {n}")
                replace(self.params, Na=na)  # validates Na like the base channel


@dataclass
class ConvergenceResult:
    """Traces of the successful trials plus per-iteration aggregates.

    failures lists (trial_index, message) for trials that raised; summary
    maps statistic name -> array over the common iteration range (median and
    quartiles across trials).
    """

    traces: list[RunTrace]
    failures: list[tuple[int, str]]
    summary: dict[str, np.ndarray]


@dataclass(frozen=True)
class SweepPoint:
    gamma_frac: float
    na: float
    n: int
    ber_sim: float
    ber_stderr: float
    ber_theory: float
    phi_star: float
    feasible: bool


@dataclass
class TradeoffCurve:
    points: list[SweepPoint]
    params: ChannelParams
    trials: int


def score_ber(s_hat, s_true) -> tuple[float, bool]:
    """Mismatch fraction with the BPSK label ambiguity resolved.

    The phase is identifiable only mod pi, so an estimate may label every
    symbol with its complement; min(e, 1-e) scores the better labeling and
    the flag reports whether the flip was applied.
    """
    s_hat = np.asarray(s_hat)
    s_true = np.asarray(s_true)
    if s_hat.shape != s_true.shape:
        raise ValueError(f"length mismatch: {s_hat.shape} vs {s_true.shape}")
    if s_hat.size == 0:
        raise ValueError("no symbols to score")
    e = np.count_nonzero(s_hat != s_true) / s_hat.size
    if e <= 1.0 - e:
        return e, False
    return 1.0 - e, True


def steady_window(length: int) -> slice:
    """Index slice of the final 20% of a trace (at least one iteration)."""
    k = max(1, int(np.ceil(_STEADY_FRAC * length)))
    return slice(length - k, length)


def quantile(a, q: float, axis: int = 0) -> np.ndarray:
    """``np.quantile(a, q, axis=axis)`` (method "linear") bit for bit, for finite ``a``.

    Sorts along ``axis`` and interpolates between the two order statistics
    around (n - 1) * q exactly as numpy does.  Unlike ``np.quantile`` it
    never imports ``numpy.ma``, which costs a process ~17 ms on first use.
    """
    v = np.sort(a, axis=axis)
    n = v.shape[axis]
    pos = (n - 1) * q
    k = math.floor(pos)
    if k >= n - 1:
        return v.take(n - 1, axis=axis)
    t = pos - k
    lo, hi = v.take(k, axis=axis), v.take(k + 1, axis=axis)
    d = hi - lo
    return hi - d * (1.0 - t) if t >= 0.5 else lo + d * t


def median(a, axis: int = 0) -> np.ndarray:
    """``np.median(a, axis=axis)`` bit for bit, for finite ``a``, without ``numpy.ma``.

    The middle order statistic, or the mean (a + b) / 2 of the two middle
    ones, as numpy forms it.
    """
    v = np.sort(a, axis=axis)
    k = v.shape[axis] // 2
    if v.shape[axis] % 2:
        return v.take(k, axis=axis)
    return (v.take(k - 1, axis=axis) + v.take(k, axis=axis)) / 2.0


def steady_psi(trace: RunTrace) -> float:
    """Circular steady-state LO phase (mod pi) over the trace tail."""
    w = trace.psi[steady_window(len(trace))]
    ang = np.angle(np.exp(2j * w).mean()) / 2.0
    return float(ang % np.pi)


def steady_mean(values: np.ndarray, length: int | None = None) -> float:
    """Arithmetic mean over the steady-state tail of a per-iteration array."""
    n = len(values) if length is None else length
    return float(np.mean(values[steady_window(n)]))


def _single_trial(spec: ExperimentSpec, index: int) -> RunTrace:
    seed_t = trial_seed(spec.seed, index)

    def source(psi: float, t: int):
        return sample_block(spec.params, psi, spec.n_block, trial_seed(seed_t, t))

    return run_qisac(source, spec.params, spec.algo)


def _run_trials(spec: ExperimentSpec, threads: int) -> tuple[list[RunTrace], list[tuple[int, str]]]:
    def guarded(i: int):
        try:
            return i, _single_trial(spec, i), None
        except QisacError as err:
            return i, None, f"{type(err).__name__}: {err}"

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(guarded, range(spec.trials)))
    else:
        results = [guarded(i) for i in range(spec.trials)]

    traces, failures = [], []
    for i, trace, err in results:          # already ordered by trial index
        if trace is not None:
            traces.append(trace)
        else:
            failures.append((i, err))
            log.warning("trial %d (seed %d) failed: %s", i, trial_seed(spec.seed, i), err)
    return traces, failures


def run_convergence_experiment(spec: ExperimentSpec, threads: int = 1) -> ConvergenceResult:
    """Run the control loop for ``trials`` independent seeds and aggregate.

    Per-trial failures are collected, not fatal — unless every trial fails.
    The summary holds per-iteration median and quartiles (25/75) of the
    estimated phase, LO phase, block Fisher information, and empirical BER
    over the iteration range common to all successful trials.
    """
    traces, failures = _run_trials(spec, threads)
    if not traces:
        raise QisacError(f"all {spec.trials} trials failed; first: {failures[0][1]}")

    t_common = min(len(tr) for tr in traces)
    summary: dict[str, np.ndarray] = {"iterations": np.arange(t_common)}
    for name in ("theta_hat", "psi", "fc", "ber_emp"):
        stack = np.stack([getattr(tr, name)[:t_common] for tr in traces])
        summary[f"{name}_median"] = median(stack)
        summary[f"{name}_q25"] = quantile(stack, 0.25)
        summary[f"{name}_q75"] = quantile(stack, 0.75)
    return ConvergenceResult(traces=traces, failures=failures, summary=summary)


def run_tradeoff_sweep(spec: ExperimentSpec, threads: int = 1) -> TradeoffCurve:
    """Steady-state BER against the required Fisher fraction, per sweep entry.

    For each (gamma_frac, Na, N): the constraint is gamma_frac times that
    configuration's Fisher maximum; each trial runs the control loop and
    contributes its steady-state (tail-averaged, ambiguity-resolved) BER.
    The known-theta frontier value is attached for reference.  Points whose
    constraint cannot be met are marked infeasible and skipped.
    """
    if not spec.sweep:
        raise ValueError("sweep list is empty")
    points: list[SweepPoint] = []
    for gamma_frac, na, n in spec.sweep:
        params_i = replace(spec.params, Na=na)
        fcm = fc_max(params_i, n)
        gamma = gamma_frac * fcm
        try:
            ref: ParetoPoint = pareto_known_theta(params_i, n, gamma)
        except QisacError:
            points.append(SweepPoint(gamma_frac, na, n, float("nan"), float("nan"),
                                     float("nan"), float("nan"), False))
            continue
        algo_i = replace(spec.algo, gamma_min=gamma, gamma_relative=False)
        spec_i = replace(spec, params=params_i, algo=algo_i, n_block=n, sweep=None)
        traces, failures = _run_trials(spec_i, threads)
        if not traces:
            raise QisacError(
                f"all trials failed at gamma_frac={gamma_frac}, Na={na}, N={n}: "
                f"{failures[0][1]}"
            )
        per_trial = np.array([steady_mean(tr.ber_emp, len(tr)) for tr in traces])
        stderr = float(per_trial.std(ddof=1) / np.sqrt(len(per_trial))) if len(per_trial) > 1 else 0.0
        points.append(SweepPoint(
            gamma_frac=float(gamma_frac),
            na=float(na),
            n=int(n),
            ber_sim=float(per_trial.mean()),
            ber_stderr=stderr,
            ber_theory=ref.ber,
            phi_star=ref.phi_star,
            feasible=True,
        ))
    return TradeoffCurve(points=points, params=spec.params, trials=spec.trials)
