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
  single lobe N(mu, sigma^2).  With z = (x - mu)/sigma and r =
  A*|cos(phi)|/sigma it factors as F = (A^2 sin^2(phi) / sigma^2) * h(r),
  h(r) = E_z[((r + z)*tanh(r*(r + z)) - r)^2], one channel-independent h
  (~2r^2 near 0, -> 1 as the lobes separate), tabulated once per process
  from a fixed Gauss-Legendre rule in z, so each Fisher value costs O(1);
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
from numpy.polynomial.legendre import leggauss

from .errors import InfeasibleError, QuadratureError
from .physics import (
    ChannelParams,
    block_mean_derivs,
    block_means,
    canonical_phase,
    expit,
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
_TAIL_SIGMAS = 12.0  # truncation at |z| = 12: tail mass < 1e-32

# Table of h (see _h_table); beyond _R_EDGE, h = 1 (1 - h(8) < 1e-15).
_CHEB_DEGREE = 80
_R_EDGE = 9.0
_BUILD_NODES = 4096
_TABLE_RTOL = 1e-12


@dataclass(frozen=True)
class FisherReport:
    """Fisher information of one channel and offset, from the table of h.

    Attributes:
        per_symbol: Fisher information per homodyne outcome (radians^-2).
        block: N * per_symbol for the block length ``n``.
        n: block length used for ``block``.
        quad_nodes: node count of the quadrature rule the table was built on.
        quad_error_est: per_symbol times the relative error certified when
            the table was built (quadrature doubling and interpolation).
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
    return 0.5 * math.erfc(x / math.sqrt(2.0))


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
    logistic is the shared, overflow-safe :func:`qisac.physics.expit`.
    """
    return dmu / sigma2 * ((x - mu) - 2.0 * x * expit(-2.0 * mu / sigma2 * x))


@lru_cache(maxsize=8)
def _normal_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule for E[f(z)], z ~ N(0, 1), on [-12, 12].

    Order-32 panels, ``nodes // 32`` of them but never fewer than six (so no
    panel is wider than 4 standard deviations); the normal density is folded
    into the weights.  Built on first use and cached read-only.
    """
    panels = max(_MIN_PANELS, nodes // _PANEL_ORDER)
    xg, wg = leggauss(_PANEL_ORDER)
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


@lru_cache(maxsize=1)
def _h_table() -> tuple[tuple[float, ...], int, float]:
    """Chebyshev table of q(r) = h(r) * (1 + r^2) / r^2 on [0, _R_EDGE], built once.

    Returns (coefficients c_deg..c_0, build node count, certified relative
    error).  h(r) is the quadrature Fisher information of the channel
    A = sqrt(1 + r^2), sigma^2 = 1 at offset atan2(1, r) (mean r, mean
    derivative -1), sampled one quadrature at a time at the Chebyshev points
    of the first kind.  Certified: each sample against half the nodes, the
    interpolant against quadrature at the midpoints between samples and
    against h = 1 at the edge.

    Raises:
        QuadratureError: the certified error exceeds _TABLE_RTOL.
    """
    def q_quad(r: float, nodes: int) -> tuple[float, int]:
        h, used = _fisher_quad(math.hypot(1.0, r), 1.0, math.atan2(1.0, r), nodes)
        return h * (1.0 + r * r) / (r * r), used

    n = _CHEB_DEGREE + 1
    theta = np.pi * (np.arange(n) + 0.5) / n
    r_nodes = 0.5 * _R_EDGE * (1.0 + np.cos(theta))
    q_vals, errs = [], []
    for r in r_nodes.tolist():
        coarse, _ = q_quad(r, _BUILD_NODES // 2)
        fine, used = q_quad(r, _BUILD_NODES)
        q_vals.append(fine)
        errs.append(abs(fine - coarse) / fine)
    coef = 2.0 / n * np.cos(np.outer(np.arange(n), theta)) @ q_vals
    coef[0] /= 2.0
    coef = tuple(coef[::-1].tolist())
    checks = [(r, q_quad(r, _BUILD_NODES)[0])
              for r in (0.5 * (r_nodes[1:] + r_nodes[:-1])).tolist()]
    checks.append((_R_EDGE, 1.0 + _R_EDGE**-2))
    errs += [abs(_q_interp(coef, r) - ref) / ref for r, ref in checks]
    worst = float(np.max(errs))
    if not worst <= _TABLE_RTOL:
        raise QuadratureError(
            f"Fisher table of h certified only to {worst:.3e} relative at {used} nodes"
        )
    return coef, used, worst


def _q_interp(coef: tuple[float, ...], r: float) -> float:
    """Clenshaw sum of the Chebyshev series ``coef`` (highest first) at r in [0, _R_EDGE]."""
    x2 = 4.0 * r / _R_EDGE - 2.0
    b1 = b2 = 0.0
    for c in coef:
        b1, b2 = c + x2 * b1 - b2, b1
    return b1 - 0.5 * x2 * b2


def _fisher(a: float, sigma2: float, phi: float) -> float:
    """Per-symbol Fisher information (A^2 sin^2(phi) / sigma^2) * h(A|cos(phi)|/sigma)."""
    s = a * math.sin(phi)
    c = a * math.cos(phi)
    ceiling = s * s / sigma2
    r2 = c * c / sigma2
    if r2 >= _R_EDGE * _R_EDGE:
        return ceiling
    return ceiling * r2 / (1.0 + r2) * _q_interp(_h_table()[0], math.sqrt(r2))


def fisher_symbol(params: ChannelParams, psi: float, n: int = 1) -> FisherReport:
    """Per-symbol Fisher information of theta at LO phase ``psi``.

    Evaluates the closed product F = (A^2 sin^2(phi) / sigma^2) * h(r),
    r = A*|cos(phi)|/sigma, on the process-wide table of h (see
    :func:`_h_table`); O(1) per call.  F is exactly 0 at phi = 0.

    Raises:
        QuadratureError: the table failed its certification when it was
            built, on the first Fisher evaluation of the process.
    """
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    _, nodes, rel_err = _h_table()
    f = _fisher(params.amplitude(), params.noise_var(), params.theta - psi)
    return FisherReport(
        per_symbol=f, block=n * f, n=n, quad_nodes=nodes, quad_error_est=f * rel_err
    )


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
    grid = np.linspace(0.0, np.pi / 2, 64).tolist()
    i = int(np.argmax([_fisher(a, sigma2, p) for p in grid]))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    phi_star = _golden_max(lambda p: _fisher(a, sigma2, p), lo, hi, 1e-6)
    return phi_star, _fisher(a, sigma2, phi_star)


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


def pareto_known_theta(params: ChannelParams, n: int, gamma_min: float) -> ParetoPoint:
    """Best achievable BER when the block Fisher information must reach gamma_min.

    With theta known, the error rate is minimized by the smallest offset
    |phi| that still satisfies N*F(phi) >= gamma_min.  F = (A^2 sin^2(phi) /
    sigma^2) * h(A*cos(phi)/sigma) is non-decreasing on [0, argmax F] at
    every A/sigma, so the offset is the root of g = N*F - gamma_min there,
    located by an Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971)
    on a bracket [lo, hi] with the invariant: lo is infeasible, hi is
    feasible under the test N*F(phi) >= gamma_min, and the loop ends when
    no double lies strictly between them; hi is returned.  The values of g
    only choose the next point.  A secant point that is not strictly inside
    the bracket, or a bracket that has not halved over three steps, gives
    way to bisection, in the exponent (sqrt(lo*hi)) while hi > 4*lo > 0, so
    even a tiny gamma_min, whose offset lies hundreds of binary orders
    below argmax F, costs tens of evaluations.

    Raises:
        ValueError: gamma_min is negative or NaN.
        InfeasibleError: gamma_min exceeds the achievable maximum fc_max.
    """
    if not gamma_min >= 0:
        raise ValueError(f"gamma_min must be non-negative, got {gamma_min}")
    a = params.amplitude()
    sigma2 = params.noise_var()
    phi_peak, f_peak = _fisher_peak(a, sigma2)
    fcm = n * f_peak
    if gamma_min > fcm:
        raise InfeasibleError(
            f"required block Fisher information {gamma_min:.6g} exceeds "
            f"the achievable maximum {fcm:.6g}"
        )

    # gamma_min = 0 is met at phi = 0; otherwise g(0) = -gamma_min < 0 and
    # g(argmax F) = fc_max - gamma_min >= 0
    lo, hi = 0.0, (phi_peak if gamma_min > 0.0 else 0.0)
    g_lo, g_hi = -gamma_min, fcm - gamma_min
    moved = 0                       # +1 / -1: the last step moved hi / lo
    widths = [math.inf] * 3         # bracket width before each of the last three steps
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        x = lo - g_lo * (hi - lo) / (g_hi - g_lo)
        if not (lo < x < hi and hi - lo <= 0.5 * widths[0]):
            x = math.sqrt(lo) * math.sqrt(hi) if hi > 4.0 * lo > 0.0 else mid
        widths = widths[1:] + [hi - lo]
        nf = n * _fisher(a, sigma2, x)
        if nf >= gamma_min:
            if moved == 1:
                g_lo *= 0.5
            hi, g_hi, moved = x, nf - gamma_min, 1
        else:
            if moved == -1:
                g_hi *= 0.5
            lo, g_lo, moved = x, nf - gamma_min, -1
        mid = 0.5 * (lo + hi)
    phi = hi

    sigma = math.sqrt(sigma2)
    return ParetoPoint(
        gamma_min=float(gamma_min),
        phi_star=float(phi),
        ber=q_function(a / sigma * math.cos(phi)),
    )
