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
    state: (theta_final, psi_final, s_hat_final).  ``quad_failures`` is
    always empty: the Fisher information is read from a shipped, certified
    table and has no failure path (the field stays while
    perfbench/tracer.py reads it).
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
    quad_failures: list[int] = field(default_factory=list)

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


# Log-likelihood margin (nats) by which the anchor block must favor the
# reflection before it is adopted: roughly a 150:1 likelihood ratio.
_FLIP_EVIDENCE = 5.0


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
    adopted when the margin exceeds _FLIP_EVIDENCE; an estimate that is its
    own reflection is not scored and its margin is NaN.  Responsibilities
    and hard decisions are reflection-invariant on the current block, so the
    flip needs no EM re-run.
    """
    cand = canonical_phase(2.0 * psi - theta_hat)
    if abs(wrap_pi(cand - theta_hat)) <= 1e-9:
        return theta_hat, math.nan
    margin = reflection_margin(anchor_abs, anchor_sum, params, anchor_psi, theta_hat, cand)
    return (cand if margin > _FLIP_EVIDENCE else theta_hat), margin


def qisac_steps(
    block_source: BlockSource,
    params: ChannelParams,
    config: AlgoConfig,
) -> Generator[np.ndarray, None, RunTrace]:
    """The control loop of :func:`run_qisac`, suspended between outer iterations.

    Each ``next()`` runs one outer iteration and returns its hard decisions
    ``s_hat``; the ``next()`` that runs the last iteration raises
    StopIteration instead, whose ``value`` is the :class:`RunTrace` (with
    that iteration's decisions as ``s_hat_final``).  A QisacError raised in
    an iteration propagates from that ``next()`` with its ``iteration`` set.
    While suspended the loop holds no block (except the one reused block
    when ``block_refresh`` is off) and no decisions, only the anchor's |x|,
    so many loops can advance in turn over shared draws.
    """
    from .montecarlo import score_ber  # deferred: montecarlo uses this module

    psi = canonical_phase(config.psi0)
    lam, eps, refresh = config.lam, config.eps, config.block_refresh
    em_cfg = config.em
    em_eps, em_lmax = em_cfg.eps, em_cfg.l_max
    a, sigma2 = params.amplitude(), params.noise_var()
    block = None
    block_psi = 0.0
    block_t = 0   # iteration the current block was drawn at
    n = 0

    theta_l, psi_l, fc_l, bemp_l, bth_l, targ_l, flip_l = [], [], [], [], [], [], []
    margin_l, adopt_l = [], []
    fcm = gamma = None
    decided: list[np.ndarray] = []   # the latest s_hat until a yield hands it out
    anchor_t = -1   # iteration of the anchor's block; -1 while there is none
    anchor_psi = 0.0
    anchor_abs = np.empty(0)
    anchor_sum = 0.0

    try:
        for t in range(config.t_max):
            if t:
                if refresh:
                    block = None
                yield decided.pop()
            if block is None:
                block = block_source(psi, t)
                block_psi, block_t = psi, t
                n = block.n
            if fcm is None:
                fcm = fc_max(params, n)
                gamma = config.gamma_min * fcm if config.gamma_relative else config.gamma_min

            # the block is always interpreted at the LO phase it was measured
            # at; with block_refresh off that phase stays psi0 while psi retunes
            res = run_em(block, params, block_psi, em_cfg)
            theta_hat = res.theta_hat
            decided.append(res.s_hat)
            del res   # its lazy responsibilities would keep an N-array alive to the next block
            margin = math.nan
            if anchor_t >= 0 and anchor_t != block_t:
                theta_hat, margin = _resolve_reflection(
                    theta_hat, block_psi, anchor_abs, anchor_sum, anchor_psi, params
                )
            em_cfg = EmConfig(em_eps, em_lmax, theta_hat)

            fc = fisher_block(a, sigma2, theta_hat - psi, n)
            ber_emp, flipped = score_ber(decided[0], block.s_true)
            kind, psi_tar = select_target(fc, gamma, theta_hat)

            theta_l.append(theta_hat)
            psi_l.append(psi)
            fc_l.append(fc)
            bemp_l.append(ber_emp)
            bth_l.append(ber_theory(params, psi))
            targ_l.append(kind)
            flip_l.append(flipped)
            margin_l.append(margin)
            adopt_l.append(margin > _FLIP_EVIDENCE)

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

    return RunTrace(
        theta_hat=np.array(theta_l),
        psi=np.array(psi_l),
        fc=np.array(fc_l),
        ber_emp=np.array(bemp_l),
        ber_theory=np.array(bth_l),
        target=targ_l,
        flipped=np.array(flip_l, dtype=bool),
        theta_true=params.theta,
        n_block=n,
        fc_max=float(fcm),
        gamma_min=float(gamma),
        theta_final=float(theta_hat),
        psi_final=psi,
        s_hat_final=decided.pop(),
        reflect_margin=np.array(margin_l, dtype=float),
        reflection_adopted=np.array(adopt_l, dtype=bool),
    )


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
    of it.  The Fisher information comes from a shipped table and cannot
    fail; a QisacError propagates with its ``iteration`` set to the outer
    iteration.  The loop itself is :func:`qisac_steps`, run to the end.
    """
    steps = qisac_steps(block_source, params, config)
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value
