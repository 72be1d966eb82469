"""EM estimation of the channel phase with joint symbol detection.

For a fixed LO phase ``psi`` the observation block is a balanced
two-component Gaussian mixture whose means depend on the unknown phase
``theta``:

    mu_m(theta) = A * cos(theta + c_m),    c_m = phi_m - psi,  m in {0, 1}.

The E-step computes posterior symbol probabilities (responsibilities), the
M-step minimizes the weighted quadratic cost

    J(theta) = sum_n sum_m gamma_nm * (x_n - A*cos(theta + c_m))^2

by a safeguarded Newton iteration.  Because the two symbols are antipodal
(c_1 = c_0 + pi), both steps reduce to the one-dimensional statistic

    S = sum_n (gamma_n0 - gamma_n1) * x_n = sum_n tanh(mu * x_n / sigma^2) * x_n,

with mu = A*cos(theta - psi) and u = cos(theta - psi):
J(theta) = sum x^2 - 2*A*S*u + N*A^2*u^2.  So :func:`run_em` makes one O(N)
pass per EM iteration to form S and runs the Newton M-step in O(1) per
evaluation; the observed-data log-likelihood is one pass in log-cosh form.
:func:`e_step`, :func:`m_step_objective` and :func:`m_step_derivatives` keep
the per-component form as the reference the reduced form is tested against.

Because the two symbols are antipodal, ``theta`` is identifiable only modulo
pi (adding pi swaps the labels); the final estimate is canonicalized to
[0, pi) and the ambiguity is left to the caller to resolve against ground
truth where needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import NewtonError
from .physics import ChannelParams, ObservationBlock, block_means, canonical_phase

__all__ = [
    "EmConfig",
    "EmResult",
    "e_step",
    "loglik",
    "m_step_objective",
    "m_step_derivatives",
    "newton_update",
    "run_em",
]

_H_FLOOR = 1e-12        # curvature below this is treated as non-convex
_MAX_HALVINGS = 30
_FLAT_RESP_TOL = 0.05   # responsibilities this close to 1/2 flag degeneracy


@dataclass(frozen=True)
class EmConfig:
    """Knobs of the EM inner loop.

    init_policy selects the starting point(s) for theta:
      * "grid": init_k equally spaced angles in [0, pi), best final
        likelihood wins (default; the cost is multimodal at low SNR);
      * "random": one uniform draw from [0, pi) seeded by init_seed;
      * "fixed": the single value init_theta (used for warm starts).
    """

    eps: float = 1e-3
    l_max: int = 500
    newton_max: int = 100
    newton_tol: float = 1e-3
    init_policy: str = "grid"
    init_k: int = 8
    init_theta: float = 0.0
    init_seed: int = 0

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.l_max < 1 or self.newton_max < 1:
            raise ValueError("iteration limits must be >= 1")
        if self.init_policy not in ("grid", "random", "fixed"):
            raise ValueError(f"unknown init_policy {self.init_policy!r}")
        if self.init_policy == "grid" and self.init_k < 1:
            raise ValueError("init_k must be >= 1")


@dataclass(frozen=True)
class EmResult:
    """Outcome of one EM run.

    theta_hat is canonical in [0, pi); s_hat[n] is the argmax of
    responsibilities[n]; loglik_trace holds the observed-data log-likelihood
    after each EM iteration of the winning start (non-decreasing up to
    roundoff). flat_likelihood flags the degenerate geometry where the two
    symbol means coincide and the responsibilities stay near 1/2.
    """

    theta_hat: float
    responsibilities: np.ndarray
    s_hat: np.ndarray
    loglik_trace: np.ndarray
    iterations: int
    converged: bool
    flat_likelihood: bool


def e_step(
    block: ObservationBlock, params: ChannelParams, psi: float, theta_t: float
) -> np.ndarray:
    """Posterior symbol probabilities gamma_nm under the current phase iterate.

    Computed in log space with max subtraction; rows sum to 1 exactly up to
    roundoff even when one component underflows.
    """
    mu = block_means(params, psi, theta_t)
    z = block.x[:, None] - mu[None, :]
    logn = -0.5 * z**2 / params.noise_var()
    logn -= logn.max(axis=1, keepdims=True)
    g = np.exp(logn)
    g /= g.sum(axis=1, keepdims=True)
    return g


def loglik(
    block: ObservationBlock, params: ChannelParams, psi: float, theta: float
) -> float:
    """Observed-data log-likelihood sum_n log[(1/2) sum_m N(x_n; mu_m, s2)].

    With antipodal means +-mu, mu = A*cos(theta - psi), and y_n = |mu*x_n|/s2,
    each term is log cosh(y_n) - (x_n^2 + mu^2)/(2*s2) - log(2*pi*s2)/2, and
    log cosh(y) = y + log1p(exp(-2y)) - log 2 holds without overflow for any
    y >= 0.  The sum is formed as

        sum[log1p(exp(-2y)) - (|x| - |mu|)^2/(2*s2)] - N*(log 2 + log(2*pi*s2)/2),

    which is the same expression with y - (x^2 + mu^2)/(2*s2) collected into
    one square, so no large terms cancel at high SNR.
    """
    sigma2 = params.noise_var()
    amu = abs(params.amplitude() * math.cos(theta - psi))
    ax = np.abs(block.x)
    d = ax - amu
    soft = float(np.log1p(np.exp(ax * (-2.0 * amu / sigma2))).sum())
    return soft - float(d @ d) / (2.0 * sigma2) - block.n * (
        math.log(2.0) + 0.5 * math.log(2.0 * math.pi * sigma2)
    )


def m_step_objective(
    block: ObservationBlock,
    params: ChannelParams,
    psi: float,
    theta: float,
    responsibilities: np.ndarray,
) -> float:
    """Weighted quadratic cost J(theta) minimized by the M-step."""
    mu = block_means(params, psi, theta)
    z = block.x[:, None] - mu[None, :]
    return float((responsibilities * z**2).sum())


def m_step_derivatives(
    block: ObservationBlock,
    params: ChannelParams,
    psi: float,
    theta: float,
    g: np.ndarray,
) -> tuple[float, float]:
    """First and second derivative of J with respect to theta.

    J' = 2A sum gamma [ x sin(theta+c) - (A/2) sin(2(theta+c)) ]
    J'' = 2A sum gamma [ x cos(theta+c) -  A    cos(2(theta+c)) ]

    Exposed so the trig algebra can be checked against finite differences
    of :func:`m_step_objective`.
    """
    a = params.amplitude()
    c = np.array([0.0, np.pi]) - psi
    tc = theta + c
    x = block.x[:, None]
    grad = 2.0 * a * float((g * (x * np.sin(tc)[None, :] - 0.5 * a * np.sin(2 * tc)[None, :])).sum())
    hess = 2.0 * a * float((g * (x * np.cos(tc)[None, :] - a * np.cos(2 * tc)[None, :])).sum())
    return grad, hess


def _golden_min(f, lo: float, hi: float, tol: float = 1e-6) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 > f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
    return 0.5 * (lo + hi)


def _newton_min(
    s: float,
    w: float,
    a: float,
    psi: float,
    theta_t: float,
    newton_max: int,
    newton_tol: float,
) -> float:
    """Safeguarded Newton on the reduced cost Jr(theta) = -2*a*s*u + w*a^2*u^2.

    u = cos(theta - psi), s = sum (gamma_0 - gamma_1) * x, w = sum gamma.
    Jr differs from J by the theta-free constant sum (gamma_0 + gamma_1) * x^2,
    which is dropped so the accept test compares O(1) quantities without
    cancellation; each evaluation is O(1).
    """

    def J(th: float) -> float:
        u = math.cos(th - psi)
        return a * u * (w * a * u - 2.0 * s)

    theta = theta_t
    for _ in range(newton_max):
        d = theta - psi
        u = math.cos(d)
        grad = 2.0 * a * math.sin(d) * (s - w * a * u)
        hess = 2.0 * a * (u * s - w * a * math.cos(2.0 * d))
        j0 = J(theta)
        accepted = False
        if hess > _H_FLOOR:
            step = -grad / hess
            for _ in range(_MAX_HALVINGS + 1):
                cand = theta + step
                if J(cand) <= j0:
                    accepted = True
                    break
                step *= 0.5
        if not accepted:
            cand = _golden_min(J, theta - np.pi / 2, theta + np.pi / 2)
            if J(cand) > j0 + 1e-9 * max(1.0, abs(j0)):
                raise NewtonError(
                    f"M-step failed to decrease the objective at theta={theta:.6f}"
                )
            step = cand - theta
        theta = cand
        if abs(step) < newton_tol:
            break
    return float(theta)


def newton_update(
    block: ObservationBlock,
    params: ChannelParams,
    psi: float,
    theta_t: float,
    responsibilities: np.ndarray,
    newton_max: int = 100,
    newton_tol: float = 1e-3,
) -> float:
    """Minimize J over theta by safeguarded Newton from theta_t.

    A Newton step is accepted only when the curvature exceeds a small floor
    and the step does not increase J; otherwise the step is halved (up to 30
    times) and, failing that, one golden-section minimization over
    [theta_t - pi/2, theta_t + pi/2] replaces the step.  Runs until
    |step| < newton_tol or newton_max iterations.  J depends on the data
    only through S = sum (gamma_0 - gamma_1) * x and sum gamma, so the
    iteration itself is O(1) per step.

    Raises:
        NewtonError: not even the golden-section fallback decreased J.
    """
    g = responsibilities
    s = float((g[:, 0] - g[:, 1]) @ block.x)
    return _newton_min(
        s, float(g.sum()), params.amplitude(), psi, theta_t, newton_max, newton_tol
    )


def _init_angles(config: EmConfig) -> list[float]:
    if config.init_policy == "grid":
        return [k * np.pi / config.init_k for k in range(config.init_k)]
    if config.init_policy == "random":
        rng = np.random.Generator(np.random.Philox(key=config.init_seed))
        return [float(rng.random() * np.pi)]
    return [float(config.init_theta)]


def run_em(
    block: ObservationBlock,
    params: ChannelParams,
    psi: float,
    config: EmConfig = EmConfig(),
) -> EmResult:
    """Alternate E- and M-steps until the phase iterate stabilizes.

    Runs from every starting angle given by the init policy and keeps the
    result with the highest observed-data log-likelihood.  Stops a start when
    |theta^(t+1) - theta^(t)| < eps or after l_max iterations.  The reported
    estimate is reduced to [0, pi), while the responsibilities and hard
    decisions are evaluated at the unreduced converged angle, so they keep
    the labeling EM actually converged to; s_hat is always the argmax of the
    returned responsibilities.

    A single block identifies the phase only up to reflection about the LO
    phase: the outcome density is even in the offset theta - psi, so theta
    and 2*psi - theta fit any one block with exactly equal likelihood, and
    which one is returned depends on the starts.  Only the offset magnitude
    |theta_hat - psi| is meaningful from one block; callers holding data
    taken at several LO phases can break the tie (the controller does).

    Raises:
        NewtonError: every start failed to make progress in the M-step.
    """
    a = params.amplitude()
    sigma2 = params.noise_var()
    x = block.x
    best = None
    last_err: NewtonError | None = None
    for theta0 in _init_angles(config):
        theta = theta0
        trace = []
        converged = False
        iterations = 0
        try:
            for it in range(config.l_max):
                # E-step folded into the statistic S = sum tanh(mu*x/s2) * x
                mu = a * math.cos(theta - psi)
                s = float(np.tanh(x * (mu / sigma2)) @ x)
                theta_new = _newton_min(
                    s, block.n, a, psi, theta, config.newton_max, config.newton_tol
                )
                trace.append(loglik(block, params, psi, theta_new))
                iterations = it + 1
                if abs(theta_new - theta) < config.eps:
                    theta = theta_new
                    converged = True
                    break
                theta = theta_new
        except NewtonError as err:
            last_err = err
            continue
        ll = trace[-1] if trace else loglik(block, params, psi, theta)
        if best is None or ll > best[0]:
            best = (ll, theta, np.array(trace), iterations, converged)
    if best is None:
        raise last_err if last_err is not None else NewtonError("EM made no progress")

    _, theta, trace, iterations, converged = best
    # Responsibilities are evaluated at the converged theta BEFORE reduction
    # mod pi: reducing by an odd multiple of pi swaps the component labels,
    # and the returned hard decisions must reflect the labeling EM actually
    # converged to (the caller resolves the ambiguity).  With antipodal
    # means gamma_0 = expit(2*mu*x/s2) and gamma_1 = expit(-2*mu*x/s2).
    theta_hat = canonical_phase(theta)
    z = x * (2.0 * a * math.cos(theta - psi) / sigma2)
    g = np.column_stack([expit(z), expit(-z)])
    s_hat = g.argmax(axis=1).astype(np.int64)
    flat = bool(np.abs(g[:, 0] - 0.5).max() < _FLAT_RESP_TOL)
    return EmResult(
        theta_hat=theta_hat,
        responsibilities=g,
        s_hat=s_hat,
        loglik_trace=trace,
        iterations=iterations,
        converged=converged,
        flat_likelihood=flat,
    )
