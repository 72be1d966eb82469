"""Closed-form error rate and Fisher information of the homodyne BPSK link.

The outcome density at LO phase ``psi`` is the two-component Gaussian mixture

    p(x) = (1/2) * sum_m Normal(x; mu_m, sigma^2),   mu_m = A*cos(phi_m + phi),

with ``phi = theta - psi``.  This module provides:

* the exact bit error rate of the ML symbol detector,
      P_e = Q((A/sigma) * |cos(phi)|);
* the per-symbol Fisher information of ``theta``, i.e. the variance of the
  score of the mixture density, plus an independent Monte-Carlo estimate of
  the same quantity for cross-checks.  The means are antipodal (mu_1 =
  -mu_0 = -mu), so the score (mu'/sigma^2) * (x*tanh(mu*x/sigma^2) - mu) is
  even in x and its mixture variance equals its second moment under the
  single lobe N(mu, sigma^2).  The quadrature therefore integrates over the
  standardized lobe variable z = (x - mu)/sigma on one fixed Gauss-Legendre
  rule with the normal density folded into the weights, the same for every
  channel and offset;
* the separated-lobe closed form (A^2/sigma^2) * sin^2(phi), which bounds
  the mixture Fisher information at every offset and is its high-SNR limit
  only where the lobes separate, A*|cos(phi)|/sigma >> 1 (at phi = pi/2
  the symbol means coincide and the exact information is 0);
* the numerically-located Fisher maximum over ``phi`` and the resulting
  known-theta Pareto frontier between error rate and required block Fisher
  information.

All angles are radians.  Per-symbol Fisher information carries units of
radians^-2; block quantities are N times the per-symbol value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfc, roots_legendre

from .errors import InfeasibleError, QuadratureError
from .physics import (
    ChannelParams,
    block_mean_derivs,
    block_means,
    canonical_phase,
    sample_block,
)

__all__ = [
    "FisherReport",
    "ParetoPoint",
    "q_function",
    "ber_theory",
    "fisher_symbol",
    "fisher_symbol_mc",
    "fisher_high_snr",
    "fisher_argmax",
    "fc_max",
    "optimal_angles",
    "pareto_known_theta",
]

# Composite Gauss-Legendre in the standardized lobe variable z.
_PANEL_ORDER = 32
_MIN_PANELS = 6
_DEFAULT_NODES = 2048
_NODE_CAP = 65536
_REL_TOL = 1e-8
_TAIL_SIGMAS = 12.0  # truncation at |z| = 12: tail mass < 1e-32


@dataclass(frozen=True)
class FisherReport:
    """Result of a Fisher-information quadrature.

    Attributes:
        per_symbol: Fisher information per homodyne outcome (radians^-2).
        block: N * per_symbol for the block length ``n``.
        n: block length used for ``block``.
        quad_nodes: node count of the reported evaluation.
        quad_error_est: |result at 2K nodes - result at K nodes|.
    """

    per_symbol: float
    block: float
    n: int
    quad_nodes: int
    quad_error_est: float


@dataclass(frozen=True)
class ParetoPoint:
    """One point of the known-theta trade-off frontier.

    ``phi_star`` is the smallest offset |phi| whose block Fisher information
    meets ``gamma_min``; ``ber`` is the error rate paid for operating there.
    """

    gamma_min: float
    phi_star: float
    ber: float


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = (1/2) * erfc(x / sqrt(2))."""
    return 0.5 * float(erfc(x / math.sqrt(2.0)))


def ber_theory(params: ChannelParams, psi: float) -> float:
    """Exact BER of ML detection: Q((A/sigma) * |cos(theta - psi)|)."""
    a = params.amplitude()
    sigma = math.sqrt(params.noise_var())
    return q_function(a / sigma * abs(math.cos(params.theta - psi)))


def _mixture_score(x, mu, dmu, sigma2):
    """Score d/dtheta log p(x) of the antipodal mixture with means +-mu.

    Equals (dmu/sigma2) * (x*tanh(mu*x/sigma2) - mu), written as
    (x - mu) - 2x*expit(-2*mu*x/sigma2) so that nothing cancels when the
    lobes separate and tanh saturates.  ``mu`` and ``dmu`` are the mean of
    symbol 0 and its theta-derivative; the score is even in ``x``.  The
    logistic is formed as 1/(1 + e^t) with t clipped at 700, where it is
    already below 1e-304, so the exponential never overflows.
    """
    t = np.minimum(2.0 * mu / sigma2 * x, 700.0)
    return dmu / sigma2 * ((x - mu) - 2.0 * x / (1.0 + np.exp(t)))


@lru_cache(maxsize=8)
def _normal_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule for E[f(z)], z ~ N(0, 1), on [-12, 12].

    Order-32 panels, ``nodes // 32`` of them but never fewer than six (so no
    panel is wider than 4 standard deviations); the normal density is folded
    into the weights.  Built on first use and cached read-only.
    """
    panels = max(_MIN_PANELS, nodes // _PANEL_ORDER)
    xg, wg = roots_legendre(_PANEL_ORDER)
    half = _TAIL_SIGMAS / panels
    mid = -_TAIL_SIGMAS + half * (2 * np.arange(panels) + 1)
    z = (mid[:, None] + half * xg[None, :]).ravel()
    w = np.tile(half * wg, panels) * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    z.flags.writeable = False
    w.flags.writeable = False
    return z, w


def _fisher_quad(a: float, sigma2: float, phi: float, nodes: int) -> tuple[float, int]:
    """Mixture-Fisher integral at offset ``phi`` with a fixed node budget.

    Returns (value, node count of the rule used).

    The score of the antipodal mixture (means +-mu, mu = A*cos(phi)) is even
    in x, so its variance under the mixture equals its second moment under
    the single lobe N(mu, sigma^2).  With x = mu + sigma*z this is

        F = E_z[ score(mu + sigma*z)^2 ],   z ~ N(0, 1),

    a channel-independent expectation evaluated on :func:`_normal_rule`.
    """
    z, w = _normal_rule(nodes)
    sigma = math.sqrt(sigma2)
    mu = a * math.cos(phi)
    score = _mixture_score(mu + sigma * z, mu, -a * math.sin(phi), sigma2)
    return float(w @ score**2), len(z)


def fisher_symbol(
    params: ChannelParams,
    psi: float,
    n: int = 1,
    nodes: int = _DEFAULT_NODES,
) -> FisherReport:
    """Per-symbol Fisher information of theta at LO phase ``psi``.

    Evaluates the score variance as a second moment under one lobe,
    F = E_z[score(mu + sigma*z)^2] with z ~ N(0, 1) on [-12, 12], by
    composite Gauss-Legendre quadrature (see :func:`_fisher_quad`),
    doubling the node count until the result is stable to 1e-8 relative
    (relative to the natural scale A^2/sigma^2 when the result itself
    underflows toward zero, e.g. at phi = 0).

    Raises:
        QuadratureError: node doubling still changes the result beyond the
            tolerance once the node cap is reached.
    """
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    a = params.amplitude()
    sigma2 = params.noise_var()
    phi = params.theta - psi
    scale = a * a / sigma2

    k = max(_PANEL_ORDER, int(nodes))
    f_k, _ = _fisher_quad(a, sigma2, phi, k)
    while True:
        f_2k, n_used = _fisher_quad(a, sigma2, phi, 2 * k)
        err = abs(f_2k - f_k)
        if err <= _REL_TOL * max(abs(f_2k), 1e-12 * scale):
            return FisherReport(
                per_symbol=f_2k,
                block=n * f_2k,
                n=n,
                quad_nodes=n_used,
                quad_error_est=err,
            )
        if 2 * k >= _NODE_CAP:
            raise QuadratureError(
                f"Fisher quadrature did not stabilize at {n_used} nodes "
                f"(last change {err:.3e}, value {f_2k:.6e}, phi={phi:.6f})"
            )
        k, f_k = 2 * k, f_2k


def fisher_symbol_mc(params: ChannelParams, psi: float, trials: int, seed: int) -> float:
    """Monte-Carlo estimate of the per-symbol Fisher information.

    Samples ``trials`` outcomes from the link and returns the empirical
    variance of the score d/dtheta log p(x).  Serves as an independent
    oracle for :func:`fisher_symbol`; standard error shrinks as
    1/sqrt(trials).
    """
    if trials < 10**4:
        raise ValueError(f"need at least 1e4 samples for a usable estimate, got {trials}")
    block = sample_block(params, psi, trials, seed)
    sigma2 = params.noise_var()
    mu = block_means(params, psi)
    dmu = block_mean_derivs(params, psi)

    return float(np.var(_mixture_score(block.x, mu[0], dmu[0], sigma2)))


def fisher_high_snr(params: ChannelParams, psi: float) -> float:
    """Well-separated-lobe form (A^2/sigma^2) * sin^2(theta - psi).

    Upper-bounds the exact mixture Fisher information at every offset.  It
    is the high-SNR limit only where the lobes separate, A*|cos(phi)|/sigma
    >> 1; within a notch of width ~sigma/A around phi = pi/2 it is not.  At
    phi = pi/2 the two symbol means coincide and the exact information is 0
    at any SNR, while this form takes its maximum A^2/sigma^2.
    """
    a = params.amplitude()
    return a * a / params.noise_var() * math.sin(params.theta - psi) ** 2


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximizer of a unimodal scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
    return 0.5 * (lo + hi)


@lru_cache(maxsize=256)
def _fisher_peak(a: float, sigma2: float) -> tuple[float, float]:
    """(argmax phi*, max F) of the per-symbol Fisher information on [0, pi/2].

    Coarse 64-point grid scan followed by golden-section refinement to 1e-6
    rad.  The phi -> -phi and phi -> pi - phi symmetries make [0, pi/2]
    sufficient.
    """
    grid = np.linspace(0.0, np.pi / 2, 64)
    vals = np.array([_fisher_quad(a, sigma2, p, _DEFAULT_NODES)[0] for p in grid])
    i = int(vals.argmax())
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    phi_star = _golden_max(
        lambda p: _fisher_quad(a, sigma2, p, _DEFAULT_NODES)[0], lo, hi, 1e-6
    )
    return phi_star, _fisher_quad(a, sigma2, phi_star, _DEFAULT_NODES)[0]


def fisher_argmax(params: ChannelParams) -> tuple[float, float]:
    """Offset phi* maximizing per-symbol Fisher information, and the maximum."""
    return _fisher_peak(params.amplitude(), params.noise_var())


def fc_max(params: ChannelParams, n: int) -> float:
    """Maximum achievable block Fisher information N * max_phi F(phi)."""
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    return n * _fisher_peak(params.amplitude(), params.noise_var())[1]


def optimal_angles(theta_hat: float) -> tuple[float, float]:
    """Communication- and sensing-optimal LO phases for an estimate theta_hat.

    Communication wants zero offset, sensing wants a quarter-turn offset; the
    two targets always differ by pi/2.  Both are canonicalized to [0, pi) —
    the integer multiple-of-pi freedom is resolved by the caller's wrapping.
    """
    return canonical_phase(theta_hat), canonical_phase(theta_hat + np.pi / 2)


@lru_cache(maxsize=256)
def _fisher_monotone_on_rise(a: float, sigma2: float) -> bool:
    """Whether F is non-decreasing on [0, argmax] (checked on a 64-point grid)."""
    phi_star, _ = _fisher_peak(a, sigma2)
    grid = np.linspace(0.0, phi_star, 64)
    vals = np.array([_fisher_quad(a, sigma2, p, _DEFAULT_NODES)[0] for p in grid])
    slack = 1e-12 * a * a / sigma2
    return bool(np.all(np.diff(vals) >= -slack))


def pareto_known_theta(params: ChannelParams, n: int, gamma_min: float) -> ParetoPoint:
    """Best achievable BER when the block Fisher information must reach gamma_min.

    With theta known, the error rate is minimized by the smallest offset
    |phi| that still satisfies N*F(phi) >= gamma_min; this function locates
    that offset by bisection on the rising segment [0, argmax F] (verified
    monotone on a grid; a dense-grid search is used as fallback when the
    segment fails the monotonicity check at very low SNR).

    Raises:
        InfeasibleError: gamma_min exceeds the achievable maximum fc_max.
    """
    if gamma_min < 0:
        raise ValueError(f"gamma_min must be non-negative, got {gamma_min}")
    a = params.amplitude()
    sigma2 = params.noise_var()
    phi_star, f_peak = _fisher_peak(a, sigma2)
    fcm = n * f_peak
    if gamma_min > fcm:
        raise InfeasibleError(
            f"required block Fisher information {gamma_min:.6g} exceeds "
            f"the achievable maximum {fcm:.6g}"
        )

    def fblock(p: float) -> float:
        return n * _fisher_quad(a, sigma2, p, _DEFAULT_NODES)[0]

    def first_feasible(lo: float, hi: float) -> float:
        """Bisect [lo, hi] down to adjacent doubles; hi stays feasible, lo infeasible."""
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if fblock(mid) >= gamma_min:
                hi = mid
            else:
                lo = mid
            mid = 0.5 * (lo + hi)
        return hi

    if gamma_min <= 0.0:
        phi = 0.0
    elif _fisher_monotone_on_rise(a, sigma2):
        phi = first_feasible(0.0, phi_star)
    else:
        # Low-SNR fallback: dense scan for the first feasible offset, then
        # refine the crossing by bisection on the bracketing cell.
        grid = np.linspace(0.0, phi_star, 1024)
        vals = np.array([fblock(p) for p in grid])
        feasible = np.nonzero(vals >= gamma_min)[0]
        if len(feasible) == 0:
            i = len(grid) - 1  # constraint binds only at the refined peak
        else:
            i = int(feasible[0])
        phi = first_feasible(grid[max(i - 1, 0)], grid[i])

    sigma = math.sqrt(sigma2)
    return ParetoPoint(
        gamma_min=float(gamma_min),
        phi_star=float(phi),
        ber=q_function(a / sigma * math.cos(phi)),
    )
