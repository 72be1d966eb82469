"""Multi-trial experiment harness: convergence runs and trade-off sweeps.

Trials run serially.  Each draws from its own RNG stream, derived from the
master seed and its trial index, with per-iteration sub-streams for its
blocks, so a trial's trace depends only on the spec and its index.

The sweep points of one block length draw the same blocks in a trial: block
t's symbols and unit normals depend only on (seed, trial, t, N), and only
the noise scale and the symbol means differ between points.  So trial i of
all those points runs in lockstep, one outer iteration of each in turn, and
block t is drawn once and composed per point (common random numbers).  Each
point's trace is bit-identical to that point run alone; the point estimates
are correlated across gamma fractions (their differences are less noisy
than independent runs would give), while each point's ``ber_stderr``, taken
over its own independent trials, is unaffected.

Such a group (one trial of the points of one N, or one trial alone) owns
the arrays its blocks are made in: one x, and for more than one refreshing
point one draw of symbols and unit normals, written in place each iteration through
the ``out`` arguments of :func:`qisac.physics.draw_block` and
:func:`qisac.physics.sample_block`.  The points step one at a time and
keep nothing of a block past their step (see
:func:`qisac.controller.qisac_steps`), so one set serves the whole group;
the lazy ``responsibilities`` and ``loglik_trace`` of an EM result read
the block when first accessed, so they hold only within its iteration.
A loop with ``block_refresh`` off keeps its one block for the whole run and
gets fresh arrays (a group of such loops makes no buffers); so does a caller's own ``block_source`` in
:func:`qisac.controller.run_qisac`, whose blocks are only read.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .analytics import ParetoPoint, fc_max, pareto_known_theta
from .controller import AlgoConfig, RunTrace, qisac_steps
from .errors import QisacError
from .physics import (
    BlockDraw,
    BlockSeed,
    ChannelParams,
    block_seeds,
    draw_block,
    sample_block,
    trial_seed,
)

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
# Block seeds a trial derives at a time.  They are derived as the trial
# reaches them, since eps > 0 may stop it long before t_max and a reused
# block needs one seed.
_SEED_CHUNK = 128


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
    if not isinstance(s_hat, np.ndarray):
        s_hat = np.asarray(s_hat)
    if not isinstance(s_true, np.ndarray):
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


def _lockstep(
    specs: list[ExperimentSpec], index: int
) -> Iterator[tuple[int, RunTrace | QisacError]]:
    """Run trial ``index`` of every spec in lockstep; yield (k, trace or error) as each ends.

    The specs share their seed and block length, so block t of the trial has
    the same symbols and unit normals in each: the loops advance one outer
    iteration at a time in turn, the first to reach iteration t draws its
    block once, and every loop composes its own block from that draw through
    ``sample_block``, bit-identical to drawing it alone.  A group with one
    refreshing loop has nothing to share and draws each block straight into
    x.  The draw and x live in buffers the group owns (see the module
    docstring), made only when a loop will read them: a loop with
    ``block_refresh`` off holds its one block for the whole run, so it gets
    a block of fresh arrays instead.  A loop that raises QisacError ends
    there; the others go on.
    """
    seed_t = trial_seed(specs[0].seed, index)
    n = specs[0].n_block
    seeds: list[BlockSeed] = []   # seeds[t] keys block t as trial_seed(seed_t, t)
    refreshing = sum(sp.algo.block_refresh for sp in specs)
    x_buf = np.empty(n) if refreshing else None   # x of the block the stepping loop reads
    # symbols and unit normals of the latest draw: every loop has stepped
    # past iteration t - 1 when one draws block t, so no block still being
    # read is overwritten
    draw_buf = (np.empty(n, np.int64), np.empty(n)) if refreshing > 1 else None
    slot: list = [-1, None]       # (t, draw) of the latest block

    def seed_at(t: int) -> BlockSeed:
        while len(seeds) <= t:
            seeds.extend(block_seeds(seed_t, len(seeds), _SEED_CHUNK))
        return seeds[t]

    def shared(t: int) -> BlockDraw:
        if slot[0] != t:
            slot[:] = t, draw_block(n, seed_at(t), out=draw_buf)
        return slot[1]

    def source_of(params: ChannelParams, refresh: bool):
        if not refresh:
            return lambda psi, t: sample_block(params, psi, n, seed_at(t))
        if draw_buf is None:
            return lambda psi, t: sample_block(params, psi, n, seed_at(t), out=x_buf)
        return lambda psi, t: sample_block(params, psi, n, shared(t), out=x_buf)

    loops = {k: qisac_steps(source_of(sp.params, sp.algo.block_refresh), sp.params, sp.algo)
             for k, sp in enumerate(specs)}
    while loops:
        for k in list(loops):
            try:
                next(loops[k])
            except StopIteration as stop:
                del loops[k]
                yield k, stop.value
            except QisacError as err:
                del loops[k]
                yield k, err


def _single_trial(spec: ExperimentSpec, index: int) -> RunTrace:
    ((_, out),) = _lockstep([spec], index)
    if isinstance(out, QisacError):
        raise out
    return out


def _failure(spec: ExperimentSpec, index: int, err: QisacError) -> tuple[int, str]:
    """Log trial ``index``'s failure with its seed and iteration; return (index, message)."""
    where = "" if err.iteration is None else f"iteration {err.iteration}: "
    msg = f"{type(err).__name__}: {where}{err}"
    log.warning("trial %d (seed %d) failed: %s", index, trial_seed(spec.seed, index), msg)
    return index, msg


def _run_trials(spec: ExperimentSpec) -> tuple[list[RunTrace], list[tuple[int, str]]]:
    traces, failures = [], []
    for i in range(spec.trials):
        try:
            traces.append(_single_trial(spec, i))
        except QisacError as err:
            failures.append(_failure(spec, i, err))
    return traces, failures


def run_convergence_experiment(spec: ExperimentSpec) -> ConvergenceResult:
    """Run the control loop for ``trials`` independent seeds and aggregate.

    Per-trial failures are collected, not fatal — unless every trial fails.
    The summary holds per-iteration median and quartiles (25/75) of the
    estimated phase, LO phase, block Fisher information, and empirical BER
    over the iteration range common to all successful trials.
    """
    traces, failures = _run_trials(spec)
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


def run_tradeoff_sweep(spec: ExperimentSpec) -> TradeoffCurve:
    """Steady-state BER against the required Fisher fraction, per sweep entry.

    For each (gamma_frac, Na, N): the constraint is gamma_frac times that
    configuration's Fisher maximum; each trial runs the control loop and
    contributes its steady-state (tail-averaged, ambiguity-resolved) BER.
    The known-theta frontier value is attached for reference.  Points whose
    constraint cannot be met are marked infeasible and skipped.  Trial i of
    the feasible points with the same N runs in lockstep over shared block
    draws (see the module docstring); a trial that fails is logged and left
    out of its point alone.
    """
    if not spec.sweep:
        raise ValueError("sweep list is empty")
    points: list[SweepPoint | None] = []
    refs: dict[int, ParetoPoint] = {}
    groups: dict[int, list[tuple[int, ExperimentSpec]]] = {}   # by block length
    for j, (gamma_frac, na, n) in enumerate(spec.sweep):
        params_j = replace(spec.params, Na=na)
        gamma = gamma_frac * fc_max(params_j, n)
        try:
            refs[j] = pareto_known_theta(params_j, n, gamma)
        except QisacError:
            points.append(SweepPoint(gamma_frac, na, n, float("nan"), float("nan"),
                                     float("nan"), float("nan"), False))
            continue
        points.append(None)
        algo_j = replace(spec.algo, gamma_min=gamma, gamma_relative=False)
        groups.setdefault(n, []).append(
            (j, replace(spec, params=params_j, algo=algo_j, n_block=n, sweep=None)))

    bers: dict[int, list[float]] = {j: [] for j in refs}
    first_failure: dict[int, str] = {}
    for group in groups.values():
        specs = [sp for _, sp in group]
        for i in range(spec.trials):
            for k, out in _lockstep(specs, i):
                j = group[k][0]
                if isinstance(out, QisacError):
                    first_failure.setdefault(j, _failure(spec, i, out)[1])
                else:
                    bers[j].append(steady_mean(out.ber_emp, len(out)))

    for j, ref in refs.items():
        gamma_frac, na, n = spec.sweep[j]
        if not bers[j]:
            raise QisacError(
                f"all trials failed at gamma_frac={gamma_frac}, Na={na}, N={n}: "
                f"{first_failure[j]}"
            )
        per_trial = np.array(bers[j])
        stderr = float(per_trial.std(ddof=1) / np.sqrt(len(per_trial))) if len(per_trial) > 1 else 0.0
        points[j] = SweepPoint(
            gamma_frac=float(gamma_frac),
            na=float(na),
            n=int(n),
            ber_sim=float(per_trial.mean()),
            ber_stderr=stderr,
            ber_theory=ref.ber,
            phi_star=ref.phi_star,
            feasible=True,
        )
    return TradeoffCurve(points=points, params=spec.params, trials=spec.trials)
