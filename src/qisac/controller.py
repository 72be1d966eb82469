"""Outer loop: feasibility-driven retuning of the local-oscillator phase.

Each outer iteration runs EM on a block measured at the current LO phase
``psi``, evaluates the block Fisher information F_c = N * F(psi, theta_hat),
and steers ``psi`` a fraction ``lambda`` of the way toward either the
communication-optimal target (zero offset, when the sensing constraint
F_c >= gamma_min is already met) or the sensing-optimal target (quarter-turn
offset, otherwise).  Angular differences are reduced to the fundamental
sector via

    wrap_pi(x) = x - pi * round(x / pi),

with round-half-away-from-zero, so the update always takes the short way
around the mod-pi circle.  The loop stops when the (unscaled) wrapped
correction falls below the outer tolerance or after t_max iterations; near
the feasibility boundary the target alternates between the two optima and
the phase dithers there instead of meeting the tolerance.  The paper's rule
has a trap: the sensing target theta_hat + pi/2 is a zero-information
point, and past the peak of F steering toward it lowers F.  At E = 10,
eta = 0.8, Na = 3 the peak is at 59.8 deg, and a run that starts above
85.3, 81.2, 75.7 or 68.0 deg (gamma_min = 0.1, 0.3, 0.6 or 0.9 * F_max,
where N * F < gamma_min) stays near 90 deg with F_c ~ 0.

One block measured at a single LO phase determines the channel phase only
up to reflection about that LO phase (the outcome law is even in the
offset).  The loop therefore holds one earlier block, the anchor, scores
each new estimate and its reflection against it, and adopts the reflection
when the anchor decisively favors it.  The anchor is held as |x| and its
sum, computed once when a block takes over, which is all the score
(:func:`qisac.em.reflection_margin`) reads.  The current block takes over as
the anchor whenever its LO phase lies farther, in the |sin 2*delta| sense,
from the LO phase of the next block.  This keeps the loop tracking the
physical phase instead of its moving mirror image, also while the LO barely
moves.

The loop only reads a block, and keeps nothing of it past its iteration
but that copy of the anchor's |x| (and the block itself when
``block_refresh`` is off).  So a caller's ``block_source`` keeps its own
arrays untouched, and the trial harness (:mod:`qisac.montecarlo`) can hand
out blocks made in buffers it reuses every iteration.  Per iteration the
loop reads F_c = N * F through :func:`qisac.analytics.fisher_block` from the
run's constants A and sigma^2, with the bits of
:func:`qisac.analytics.fisher_symbol`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Generator

import numpy as np

from .analytics import ber_theory, fc_max, fisher_block, optimal_angles
from .em import EmConfig, reflection_margin, run_em
from .errors import QisacError
from .physics import ChannelParams, ObservationBlock, canonical_phase

__all__ = [
    "AlgoConfig",
    "RunTrace",
    "wrap_pi",
    "select_target",
    "update_psi",
    "score_ber",
    "qisac_steps",
    "run_qisac",
]

BlockSource = Callable[[float, int], ObservationBlock]


@dataclass(frozen=True)
class AlgoConfig:
    """Outer-loop parameters.

    gamma_min is the required block Fisher information; when gamma_relative
    is set it is interpreted as a fraction of the achievable maximum and
    resolved against fc_max at run time.  block_refresh selects whether a
    fresh observation block is drawn at each outer iteration (default) or
    one initial block is reused throughout.  eps = 0 disables early
    stopping so exactly t_max iterations run.  psi0 may be any finite
    angle; it is reduced mod pi on entry.
    """

    gamma_min: float
    lam: float = 0.01
    eps: float = 1e-3
    t_max: int = 500
    em: EmConfig = field(default_factory=EmConfig)
    psi0: float = 0.0
    gamma_relative: bool = False
    block_refresh: bool = True

    def __post_init__(self):
        if not 0 < self.lam <= 1:
            raise ValueError(f"lambda must be in (0, 1], got {self.lam}")
        if not 0 <= self.gamma_min < math.inf:
            raise ValueError(f"gamma_min must be finite and non-negative, got {self.gamma_min}")
        if self.gamma_relative and self.gamma_min > 1:
            raise ValueError("relative gamma_min must lie in [0, 1]")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if not self.eps >= 0:
            raise ValueError("eps must be non-negative (0 disables early stopping)")
        if not np.isfinite(self.psi0):
            raise ValueError("psi0 must be finite")


@dataclass
class RunTrace:
    """Per-iteration record of one controller run.

    Arrays are aligned by outer iteration.  ``target`` holds "com"/"sen".
    ``ber_emp`` is label-ambiguity-resolved; ``flipped`` records whether the
    resolution inverted the decisions.  ``reflect_margin`` is the anchor's
    log-likelihood margin (nats) of the estimate's reflection over the
    estimate, NaN where nothing was scored (the first iteration, a reused
    block, or an estimate that is its own reflection);
    ``reflection_adopted`` records whether the margin exceeded the evidence
    threshold, so that the reflection replaced the EM estimate.  ``fc_max``
    and ``gamma_min`` are the resolved run-level constants.  Terminal
    state: (theta_final, psi_final, s_hat_final: the last decisions).
    """

    theta_hat: np.ndarray
    psi: np.ndarray
    fc: np.ndarray
    ber_emp: np.ndarray
    ber_theory: np.ndarray
    target: list[str]
    flipped: np.ndarray
    theta_true: float
    n_block: int
    fc_max: float
    gamma_min: float
    theta_final: float = 0.0
    psi_final: float = 0.0
    s_hat_final: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    reflect_margin: np.ndarray = field(default_factory=lambda: np.empty(0))
    reflection_adopted: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))

    def __len__(self) -> int:
        return len(self.psi)


def wrap_pi(x):
    """Reduce an angle difference to [-pi/2, pi/2]: x - pi*round(x/pi).

    Ties (x/pi exactly half-integral) round away from zero, so
    wrap_pi(pi/2) == -pi/2.  Accepts scalars or arrays.  A finite float
    takes a path in ``math`` whose every operation (division, floor, the
    integer-valued product and the difference) is exact or correctly
    rounded, so it returns the bits of the array path.
    """
    if type(x) is float and math.isfinite(x):
        y = x / math.pi
        k = math.floor(abs(y) + 0.5)
        return x - math.pi * (-k if y < 0.0 else k)
    y = np.asarray(x, dtype=float) / np.pi
    r = np.sign(y) * np.floor(np.abs(y) + 0.5)
    out = np.asarray(x, dtype=float) - np.pi * r
    return out if out.ndim else float(out)


def select_target(fc: float, gamma_min: float, theta_hat: float) -> tuple[str, float]:
    """Pick the LO target by feasibility of the sensing constraint.

    Returns ("com", theta_hat mod pi) when fc >= gamma_min — ties count as
    feasible — and ("sen", theta_hat + pi/2 mod pi) otherwise.
    """
    psi_com, psi_sen = optimal_angles(theta_hat)
    if fc >= gamma_min:
        return "com", psi_com
    return "sen", psi_sen


def update_psi(psi: float, psi_tar: float, lam: float) -> float:
    """One damped step toward the target: (psi + lam*wrap_pi(psi_tar - psi)) mod pi."""
    if not 0 < lam <= 1:
        raise ValueError(f"lambda must be in (0, 1], got {lam}")
    return canonical_phase(psi + lam * wrap_pi(psi_tar - psi))


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


# Log-likelihood margin (nats) by which the anchor block must favor the
# reflection before it is adopted: roughly a 150:1 likelihood ratio.
_FLIP_EVIDENCE = 5.0


def _adopts(margin):
    """The adoption rule: margin > _FLIP_EVIDENCE, never true for NaN; elementwise on arrays."""
    return margin > _FLIP_EVIDENCE


def _resolve_reflection(
    theta_hat: float,
    psi: float,
    anchor_abs: np.ndarray,
    anchor_sum: float,
    anchor_psi: float,
    params: ChannelParams,
) -> tuple[float, float]:
    """Return (theta_hat or its reflection 2*psi - theta_hat, the anchor's margin).

    A single block pins the channel phase only up to reflection about the
    LO phase it was measured at: the mixture means are +-A*cos(theta - psi),
    an even function of the offset, so ``theta_hat`` and ``2*psi - theta_hat``
    fit that block with exactly equal likelihood.  A block measured at
    another LO phase, delta away, tells them apart by its squared means,
    cos^2(phi - delta) - cos^2(phi + delta) = sin(2*phi) * sin(2*delta)
    with phi = theta_hat - psi, so the anchor is the held block with the
    largest |sin 2*delta| (see :func:`run_qisac`).  The anchor is given as
    its |x| (``anchor_abs``) and their sum (``anchor_sum``), and
    ``margin`` = loglik(reflection) - loglik(theta_hat) on it comes from
    :func:`qisac.em.reflection_margin` in one call.  The reflection is
    adopted when the margin exceeds _FLIP_EVIDENCE (:func:`_adopts`); an
    estimate that is its own reflection is not scored and its margin is NaN.
    Responsibilities and hard decisions are reflection-invariant on the
    current block, so the flip needs no EM re-run.
    """
    cand = canonical_phase(2.0 * psi - theta_hat)
    if abs(wrap_pi(cand - theta_hat)) <= 1e-9:
        return theta_hat, math.nan
    margin = reflection_margin(anchor_abs, anchor_sum, params, anchor_psi, theta_hat, cand)
    return (cand if _adopts(margin) else theta_hat), margin


def qisac_steps(
    block_source: BlockSource,
    params: ChannelParams,
    config: AlgoConfig,
) -> Generator[None, None, RunTrace]:
    """The control loop of :func:`run_qisac`, suspended between outer iterations.

    Each ``next()`` runs one outer iteration and returns None; the
    ``next()`` that runs the last iteration raises StopIteration instead,
    whose ``value`` is the :class:`RunTrace` (with that iteration's hard
    decisions as ``s_hat_final``).  A QisacError raised in an iteration
    propagates from that ``next()`` with its ``iteration`` set.  While
    suspended the loop holds no block (except the one reused block when
    ``block_refresh`` is off) and no decisions, only the anchor's |x|, so
    many loops can advance in turn over shared draws.  It is a cohort of
    one (:func:`_cohort_steps`).
    """
    (trace,) = yield from _cohort_steps(block_source, params, config, [config.gamma_min])
    return trace


def _cohort_steps(block_source: BlockSource, params: ChannelParams, config: AlgoConfig,
                  gammas: list[float], state: tuple | None = None,
                  ) -> Generator[tuple | None, None, list[RunTrace]]:
    """The loop of :func:`qisac_steps` for a cohort: runs that differ only in gamma_min.

    ``gammas`` lists the members' gamma_min in ascending order.  gamma enters
    the loop only through the test fc >= gamma, so until that test disagrees
    the members share each iteration bit for bit.  When fc meets the demand
    of the first j members only, they part as a child cohort started from
    ``state``, the loop state they reach at the end of that iteration: it
    copies the trace lists and shares the anchor's |x| (never written in
    place) and, with ``block_refresh`` off, the reused block.  That
    iteration's ``next()`` returns (child, j), not None; the child's first
    ``next()`` runs the iteration after.  The value at the end is the
    members' RunTraces in order, no two sharing an array; a QisacError
    ends the cohort, so it is every member's.
    """
    lam, eps, refresh = config.lam, config.eps, config.block_refresh
    em_eps, em_lmax = config.em.eps, config.em.l_max
    a, sigma2 = params.amplitude(), params.noise_var()
    if state is None:
        state = (0, canonical_phase(config.psi0), config.em, None, None, 0.0, 0, 0,
                 ([], [], [], [], [], [], [], []), -1, 0.0, np.empty(0), 0.0, 0.0, None)
    # block_t: the iteration the current block was drawn at; anchor_t: that of
    # the anchor's block, -1 while there is none
    (t0, psi, em_cfg, fcm, block, block_psi, block_t, n, lists,
     anchor_t, anchor_psi, anchor_abs, anchor_sum, theta_hat, s_hat) = state
    theta_l, psi_l, fc_l, bemp_l, bth_l, flip_l, margin_l, targ_l = lists
    child = None

    try:
        for t in range(t0, config.t_max):
            if t != t0:
                del s_hat   # scored already; no decisions are held while suspended
                if refresh:
                    block = None
                yield child
                child = None
            if block is None:
                block = block_source(psi, t)
                block_psi, block_t = psi, t
                n = block.n
            if fcm is None:
                fcm = fc_max(params, n)
                if config.gamma_relative:
                    gammas = [g * fcm for g in gammas]

            # the block is always interpreted at the LO phase it was measured
            # at; with block_refresh off that phase stays psi0 while psi retunes
            res = run_em(block, params, block_psi, em_cfg)
            theta_hat, s_hat = res.theta_hat, res.s_hat
            del res   # its lazy responsibilities would keep an N-array alive to the next block
            margin = math.nan
            if anchor_t >= 0 and anchor_t != block_t:
                theta_hat, margin = _resolve_reflection(
                    theta_hat, block_psi, anchor_abs, anchor_sum, anchor_psi, params
                )
            em_cfg = EmConfig(em_eps, em_lmax, theta_hat)

            fc = fisher_block(a, sigma2, theta_hat - psi, n)
            ber_emp, flipped = score_ber(s_hat, block.s_true)
            kind, psi_tar = select_target(fc, gammas[-1], theta_hat)

            theta_l.append(theta_hat)
            psi_l.append(psi)
            fc_l.append(fc)
            bemp_l.append(ber_emp)
            bth_l.append(ber_theory(params, psi))
            flip_l.append(flipped)
            margin_l.append(margin)
            targ_l.append(kind)

            if kind == "sen" and fc >= gammas[0]:
                # the first j members part as a child cohort, stepping toward the
                # communication target (as below: a helper would cost every loop a call)
                j = bisect_right(gammas, fc)
                tar_c = select_target(fc, gammas[j - 1], theta_hat)[1]
                psi_c = update_psi(psi, tar_c, lam)
                anchor_c = (anchor_t, anchor_psi, anchor_abs, anchor_sum)
                if anchor_t < 0 or abs(math.sin(2.0 * (block_psi - psi_c))) > abs(
                    math.sin(2.0 * (anchor_psi - psi_c))
                ):
                    abs_c = np.abs(block.x)
                    anchor_c = (block_t, block_psi, abs_c, float(abs_c.sum()))
                *lists_c, targ_c = (v.copy() for v in lists)
                targ_c[-1] = "com"
                t_c = config.t_max if abs(wrap_pi(tar_c - psi)) < eps else t + 1   # t_max: ends
                child = (_cohort_steps(block_source, params, config, gammas[:j], (
                    t_c, psi_c, em_cfg, fcm, None if refresh else block, block_psi,
                    block_t, n, (*lists_c, targ_c), *anchor_c, theta_hat,
                    s_hat.copy() if t_c == config.t_max else None)), j)
                gammas = gammas[j:]
            dpsi = wrap_pi(psi_tar - psi)
            psi = update_psi(psi, psi_tar, lam)
            if anchor_t < 0 or abs(math.sin(2.0 * (block_psi - psi))) > abs(
                math.sin(2.0 * (anchor_psi - psi))
            ):
                anchor_t, anchor_psi = block_t, block_psi
                anchor_abs = np.abs(block.x)
                anchor_sum = float(anchor_abs.sum())
            if abs(dpsi) < eps:
                break
    except QisacError as err:
        err.iteration = t
        raise
    if child is not None:   # a split in the last iteration
        yield child

    traces = []
    for gamma in gammas:
        margins = np.array(margin_l, dtype=float)
        traces.append(RunTrace(
            theta_hat=np.array(theta_l),
            psi=np.array(psi_l),
            fc=np.array(fc_l),
            ber_emp=np.array(bemp_l),
            ber_theory=np.array(bth_l),
            target=list(targ_l),
            flipped=np.array(flip_l, dtype=bool),
            theta_true=params.theta,
            n_block=n,
            fc_max=float(fcm),
            gamma_min=float(gamma),
            theta_final=float(theta_hat),
            psi_final=psi,
            s_hat_final=s_hat.copy() if traces else s_hat,
            reflect_margin=margins,
            reflection_adopted=_adopts(margins),
        ))
    return traces


def run_qisac(
    block_source: BlockSource,
    params: ChannelParams,
    config: AlgoConfig,
) -> RunTrace:
    """Run the full sensing/communication control loop.

    ``block_source(psi, t)`` must return the observation block measured at
    the CURRENT LO phase for outer iteration ``t``; with
    config.block_refresh False it is invoked once and the block is reused.
    EM warm-starts from the previous iteration's estimate after the first
    pass.  Because one block determines the phase only up to reflection
    about the LO phase (see _resolve_reflection), every estimate after the
    first is scored against one held anchor, which decides whether to keep
    the estimate or adopt its reflection; a reused block is never scored
    against itself.  After each iteration the current block becomes the
    anchor when its LO phase is farther from the next one,
    |sin 2(psi_block - psi_next)| larger than the anchor's; its |x| and
    their sum are computed then, once per anchor, and are all that is kept
    of it, and of each iteration's decisions only the last (``s_hat_final``).
    The Fisher information comes from a shipped table and cannot fail; a
    QisacError propagates with its ``iteration`` set to the outer
    iteration.  The loop itself is :func:`qisac_steps`, run to the end.
    """
    steps = qisac_steps(block_source, params, config)
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value
