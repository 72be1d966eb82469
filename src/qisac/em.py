"""EM estimation of the channel phase with joint symbol detection.

For a fixed LO phase ``psi`` the observation block is a balanced
two-component Gaussian mixture whose means depend on the unknown phase
``theta``:

    mu_m(theta) = A * cos(theta + c_m),    c_m = phi_m - psi,  m in {0, 1}.

The E-step computes posterior symbol probabilities (responsibilities), the
M-step minimizes the weighted quadratic cost

    J(theta) = sum_n sum_m gamma_nm * (x_n - A*cos(theta + c_m))^2.

Because the two symbols are antipodal (c_1 = c_0 + pi), both steps reduce
to the one-dimensional statistic

    S = sum_n (gamma_n0 - gamma_n1) * x_n = sum_n tanh(mu * x_n / sigma^2) * x_n,

with mu = A*cos(theta - psi) and u = cos(theta - psi):
J(theta) = sum x^2 - 2*A*S*u + N*A^2*u^2, a quadratic in u minimized at
u* = clip(S/(N*A), -1, 1).  The M-step is therefore exact,
theta = psi +- arccos(u*), with the sign of sin(theta_t - psi) kept from
the current iterate.  :func:`run_em` makes one O(N) pass per EM iteration
to form S and takes the M-step in O(1); the observed-data log-likelihood is
one pass in log-cosh form, evaluated at the iterates only when a caller
reads ``loglik_trace``.
:func:`m_step` takes the same closed-form step from a given set of
responsibilities.  :func:`e_step`, :func:`m_step_objective` and
:func:`m_step_derivatives` keep the per-component form as the reference the
reduced form is tested against.

EM runs from one start.  With v = |cos(theta - psi)| the statistic is
S(v) = sum |x| * tanh(A*v*|x|/sigma^2), which is increasing and concave in
v with S(0) = 0, so the EM map v <- S(v)/(N*A) has at most one positive
fixed point, the likelihood maximum (cf. Xu, Hsu & Maleki, "Global analysis
of EM for mixtures of two Gaussians", NeurIPS 2016).  Every start off the
quarter turn (v > 0) reaches the same offset magnitude |theta_hat - psi|, so
a grid of starts buys nothing; starts differ only in the side of psi they
end on, which one block cannot decide and the M-step keeps from the start.

Because the two symbols are antipodal, ``theta`` is identifiable only modulo
pi (adding pi swaps the labels); the final estimate is canonicalized to
[0, pi) and the ambiguity is left to the caller to resolve against ground
truth where needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .physics import ChannelParams, ObservationBlock, block_means, canonical_phase, dot, expit

__all__ = [
    "EmConfig",
    "EmResult",
    "e_step",
    "loglik",
    "reflection_margin",
    "m_step_objective",
    "m_step_derivatives",
    "m_step",
    "run_em",
]

_FLAT_RESP_TOL = 0.05   # responsibilities this close to 1/2 flag degeneracy
# |z| below which expit(z) and expit(-z) may round to the same value; the
# true gap is ~|z|/2, so beyond it the two differ by far more than roundoff
_TIE_BAND = 1e-12

# Largest block whose two reflection soft terms run as one (2, N) pass.  The
# one pass saves a round of numpy calls, 2% of the trial loop at N = 1e3;
# at N = 5e4 its 800 KB scratch made the loop 4% slower than two passes over
# one N scratch, which stays warm between them.  From N = 5e3 to 2e4 the two
# forms measured even.
_ONE_PASS_MAX = 16384


@dataclass(frozen=True)
class EmConfig:
    """Knobs of the EM inner loop.

    eps stops the EM iteration once the phase moves by less than it; l_max
    caps its iteration count.
    init_theta is the one starting angle; None starts at the LO phase psi
    (see :func:`run_em`), a value warm-starts from a previous estimate.
    """

    eps: float = 1e-3
    l_max: int = 500
    init_theta: float | None = None

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.l_max < 1:
            raise ValueError("l_max must be >= 1")


class EmResult:
    """Outcome of one EM run.

    theta_hat is canonical in [0, pi); s_hat[n] is the argmax of
    responsibilities[n] (ties go to label 0); loglik_trace holds the
    observed-data log-likelihood after each EM iteration (non-decreasing up
    to roundoff). flat_likelihood flags the degenerate geometry where the two
    symbol means coincide and the responsibilities stay near 1/2.

    responsibilities and loglik_trace may each be given as an array or as a
    zero-argument callable that builds it; a callable runs on first access
    and its array is kept.  :func:`run_em` passes callables, so a caller that
    reads only theta_hat and s_hat never pays for the N x 2 matrix or for a
    likelihood pass per EM iteration.
    """

    __slots__ = ("theta_hat", "_responsibilities", "s_hat", "_loglik_trace",
                 "iterations", "converged", "flat_likelihood")

    def __init__(
        self,
        theta_hat: float,
        responsibilities: np.ndarray | Callable[[], np.ndarray],
        s_hat: np.ndarray,
        loglik_trace: np.ndarray | Callable[[], np.ndarray],
        iterations: int,
        converged: bool,
        flat_likelihood: bool,
    ):
        self.theta_hat = theta_hat
        self._responsibilities = responsibilities
        self.s_hat = s_hat
        self._loglik_trace = loglik_trace
        self.iterations = iterations
        self.converged = converged
        self.flat_likelihood = flat_likelihood

    @property
    def responsibilities(self) -> np.ndarray:
        if callable(self._responsibilities):
            self._responsibilities = self._responsibilities()
        return self._responsibilities

    @property
    def loglik_trace(self) -> np.ndarray:
        if callable(self._loglik_trace):
            self._loglik_trace = self._loglik_trace()
        return self._loglik_trace


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
    d = np.abs(block.x)
    soft = _soft_sum(d, amu, sigma2)
    d -= amu
    return soft - float(dot(d, d, out=d)) / (2.0 * sigma2) - block.n * (
        math.log(2.0) + 0.5 * math.log(2.0 * math.pi * sigma2)
    )


def _soft_sum(abs_x: np.ndarray, amu: float, sigma2: float, out: np.ndarray | None = None) -> float:
    """sum log1p(exp(-2*amu*|x|/sigma2)), the soft term of :func:`loglik`.

    ``out`` may name a scratch array of the shape of ``abs_x``.
    """
    t = np.multiply(abs_x, -2.0 * amu / sigma2, out=out)
    return float(np.log1p(np.exp(t, out=t), out=t).sum())


def reflection_margin(
    abs_x: np.ndarray,
    sum_abs_x: float,
    params: ChannelParams,
    psi: float,
    theta: float,
    cand: float,
) -> float:
    """loglik(cand) - loglik(theta) of a block measured at ``psi``, from |x| alone.

    ``abs_x`` is the block's |x| and ``sum_abs_x`` its sum, both computed once
    by the holder of the block.  With m = |A*cos(. - psi)| the log-likelihood
    of :func:`loglik` is sum log1p(exp(-2m|x|/s2)) - sum (|x| - m)^2/(2*s2)
    minus a constant, and the quadratic parts of the two angles differ only
    through sum |x|:

        (m1 - m0) * (2*sum|x| - N*(m1 + m0)) / (2*s2),

    so the margin costs the two soft terms, and no square.  Up to
    _ONE_PASS_MAX outcomes both run as one pass over a C-contiguous (2, N)
    scratch, reduced row by row, which gives each row the bits of its 1-D
    sum (see :func:`qisac.physics.dot`); beyond it they run one after the
    other on one N scratch.
    """
    sigma2 = params.noise_var()
    a = params.amplitude()
    m0 = abs(a * math.cos(theta - psi))
    m1 = abs(a * math.cos(cand - psi))
    if len(abs_x) <= _ONE_PASS_MAX:
        t = np.multiply.outer((-2.0 * m1 / sigma2, -2.0 * m0 / sigma2), abs_x)
        s1, s0 = np.add.reduce(np.log1p(np.exp(t, out=t), out=t), axis=1).tolist()
        soft = s1 - s0
    else:
        t = np.empty_like(abs_x)
        soft = _soft_sum(abs_x, m1, sigma2, t) - _soft_sum(abs_x, m0, sigma2, t)
    return soft + (m1 - m0) * (2.0 * sum_abs_x - len(abs_x) * (m1 + m0)) / (2.0 * sigma2)


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


def _m_step(s: float, w: float, a: float, psi: float, theta_t: float) -> float:
    """Exact minimizer of J on theta_t's side of psi.

    J depends on theta only through u = cos(theta - psi), as the quadratic
    -2*a*s*u + w*a^2*u^2 plus a theta-free constant, with s = sum (gamma_0 -
    gamma_1) * x and w = sum gamma.  Its minimizers are
    psi +- arccos(clip(s/(w*a), -1, 1)); the one returned keeps the sign of
    sin(theta_t - psi) (the + side at theta_t = psi), because J cannot
    tell the two apart and the side belongs to the caller.
    """
    u = min(1.0, max(-1.0, s / (w * a)))
    return psi + math.copysign(math.acos(u), math.sin(theta_t - psi))


def m_step(
    block: ObservationBlock,
    params: ChannelParams,
    psi: float,
    theta_t: float,
    responsibilities: np.ndarray,
) -> float:
    """The M-step: minimize J over theta in closed form, on theta_t's side of psi.

    J depends on the data only through S = sum (gamma_0 - gamma_1) * x and
    sum gamma, and on theta only through cos(theta - psi), so its global
    minimizers are the reflection pair psi +- arccos(clip(S/(sum gamma * A)))
    and the result never increases J.
    """
    g = responsibilities
    s = float(dot(g[:, 0] - g[:, 1], block.x))
    return _m_step(s, float(g.sum()), params.amplitude(), psi, theta_t)


def run_em(
    block: ObservationBlock,
    params: ChannelParams,
    psi: float,
    config: EmConfig = EmConfig(),
) -> EmResult:
    """Alternate E- and M-steps from one start until the phase iterate stabilizes.

    The start is config.init_theta, or the LO phase psi when that is None.
    From psi (|cos(theta - psi)| = 1) the EM map approaches its fixed point
    monotonically, and psi is never the degenerate quarter-turn start at
    which the two symbol means coincide.  Since the fixed point of the
    offset magnitude is unique (see the module docstring), further starts
    could change only the side of psi the result lands on.  Stops when
    |theta^(t+1) - theta^(t)| < eps or after l_max iterations.  The reported
    estimate is reduced to [0, pi), while the responsibilities and hard
    decisions are evaluated at the unreduced converged angle, so they keep
    the labeling EM actually converged to; s_hat is always the argmax of the
    returned responsibilities.  The result's lazy ``responsibilities`` and
    ``loglik_trace`` read ``block.x`` when first accessed, so they are valid
    only while ``block.x`` is unchanged: read them before the block's arrays
    are written again (the trial harness of :mod:`qisac.montecarlo` rewrites
    its x buffer every iteration).

    A single block identifies the phase only up to reflection about the LO
    phase: the outcome density is even in the offset theta - psi, so theta
    and 2*psi - theta fit any one block with exactly equal likelihood.  Only
    the offset magnitude |theta_hat - psi| is meaningful from one block;
    callers holding data taken at several LO phases can break the tie (the
    controller does).
    """
    a = params.amplitude()
    sigma2 = params.noise_var()
    x = block.x
    n = len(x)
    theta = psi if config.init_theta is None else float(config.init_theta)
    thetas = []
    converged = False
    t = None   # the one scratch of every pass, made by the first
    for _ in range(config.l_max):
        # E-step folded into the statistic S = sum tanh(mu*x/s2) * x
        mu = a * math.cos(theta - psi)
        t = np.multiply(x, mu / sigma2, out=t)
        s = float(dot(np.tanh(t, out=t), x, out=t))
        theta_new = _m_step(s, n, a, psi, theta)
        thetas.append(theta_new)
        step = theta_new - theta
        theta = theta_new
        if abs(step) < config.eps:
            converged = True
            break

    # Decisions are evaluated at the converged theta BEFORE reduction mod pi:
    # reducing by an odd multiple of pi swaps the component labels, and the
    # returned hard decisions must reflect the labeling EM actually converged
    # to (the caller resolves the ambiguity).  With antipodal means
    # gamma_0 = expit(z) and gamma_1 = expit(-z), z = k*x, k = 2*mu/s2, so the
    # argmax is label 1 exactly where expit(-z) > expit(z): wherever z < 0,
    # except for |z| < _TIE_BAND, where both may round to the same value and
    # the responsibilities themselves decide.  expit is monotone, so the
    # largest |gamma_0 - 1/2| sits at the extreme z, and |z| >= 1 there puts
    # it beyond expit(1) - 1/2 > 0.23, far from flat.  Rounding is monotone
    # and symmetric in sign, so min|z| = |k|*min|x| and max|z| = |k|*max|x|
    # exactly; when neither a tie nor the flat test can arise, z < 0 is the
    # sign of x against that of k and z is never formed.  One |z_0| >= 1
    # already rules the flat test out, so max|x| is read only when it fails.
    theta_hat = canonical_phase(theta)
    k = 2.0 * a * math.cos(theta - psi) / sigma2
    ax = np.abs(x, out=t)
    ak = abs(k)
    if ak * ax.min() >= _TIE_BAND and (ak * ax[0] >= 1.0 or ak * ax.max() >= 1.0):
        s_hat = (x < 0.0 if k > 0.0 else x > 0.0).astype(np.int64)
        flat = False
        z = None
    else:
        z = x * k
        s_hat = (z < 0.0).astype(np.int64)
        tie = np.flatnonzero((z < 0.0) & (z > -_TIE_BAND))
        zt = z[tie]
        s_hat[tie] = expit(-zt) > expit(zt)
        flat = bool(np.abs(z, out=t).max() < 1.0 and max(
            abs(expit(z.max()) - 0.5), abs(expit(z.min()) - 0.5)) < _FLAT_RESP_TOL)

    def responsibilities():
        zr = x * k if z is None else z
        return np.column_stack([expit(zr), expit(-zr)])

    return EmResult(
        theta_hat=theta_hat,
        responsibilities=responsibilities,
        s_hat=s_hat,
        loglik_trace=lambda: np.array([loglik(block, params, psi, th) for th in thetas]),
        iterations=len(thetas),
        converged=converged,
        flat_likelihood=flat,
    )
