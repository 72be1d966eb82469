"""Measurement statistics of a BPSK coherent-state link with homodyne detection.

A transmitter sends one of two antipodal coherent states (carrier phases
``phi_m = pi*m``, ``m in {0,1}``) through a phase-rotating channel (unknown
rotation ``theta``) with transmissivity ``eta`` and additive thermal noise
``Na``.  The receiver measures the quadrature selected by a local-oscillator
(LO) phase ``psi``.  The homodyne outcome for symbol ``m`` is then an exact
Gaussian,

    x ~ Normal(mu_m, sigma^2),   mu_m    = A * cos(phi_m + theta - psi),
                                 sigma^2 = Na + 1/2,   A = sqrt(2*eta*E),

so every statistic of the link depends on ``(theta, psi)`` only through the
effective offset ``phi = theta - psi``.  This module holds the parameter
container, the mean/derivative formulas, a bit-reproducible block sampler,
the overflow-safe logistic shared by EM and the Fisher score, and the one
reduction order (:func:`dot`) of every float64 inner product in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import SFC64, Generator

__all__ = [
    "ChannelParams",
    "ObservationBlock",
    "canonical_phase",
    "block_means",
    "block_mean_derivs",
    "dot",
    "sample_block",
    "trial_seed",
]

_MASK64 = (1 << 64) - 1


def canonical_phase(x: float) -> float:
    """Reduce an angle to the canonical sector [0, pi).

    Plain float modulo can return the modulus itself when the operand is a
    tiny negative number (``-1e-60 % pi == pi``); this helper folds that
    rounding artifact back to 0 so the half-open contract really holds.
    """
    r = float(x) % np.pi
    return 0.0 if r >= np.pi else r


@dataclass(frozen=True)
class ChannelParams:
    """Physical link parameters.

    Attributes:
        E: mean photon number per symbol, > 0.
        eta: channel transmissivity, in (0, 1].
        Na: thermal mean photon number, >= 0.
        theta: true channel phase rotation in radians.

    Every field must be finite.
    """

    E: float
    eta: float
    Na: float
    theta: float = 0.0

    def __post_init__(self):
        for name in ("E", "eta", "Na", "theta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.E > 0:
            raise ValueError(f"E must be positive, got {self.E}")
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if self.Na < 0:
            raise ValueError(f"Na must be non-negative, got {self.Na}")

    def amplitude(self) -> float:
        """Signal amplitude A = sqrt(2 * eta * E)."""
        return float(np.sqrt(2.0 * self.eta * self.E))

    def noise_var(self) -> float:
        """Homodyne outcome variance sigma^2 = Na + 1/2."""
        return float(self.Na + 0.5)


@dataclass(frozen=True)
class ObservationBlock:
    """A block of N homodyne outcomes with the symbols that produced them.

    Regenerating with the same (params, psi, n, seed) reproduces ``x``
    bit-exactly; see :func:`sample_block`.
    """

    x: np.ndarray
    s_true: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "s_true", np.asarray(self.s_true, dtype=np.int64))
        if self.x.ndim != 1 or self.s_true.ndim != 1:
            raise ValueError("x and s_true must be 1-D")
        if len(self.x) != len(self.s_true):
            raise ValueError("x and s_true must have equal length")
        if len(self.x) < 1:
            raise ValueError("observation block must contain at least one outcome")

    @property
    def n(self) -> int:
        return len(self.x)


def block_means(params: ChannelParams, psi: float, theta: float | None = None) -> np.ndarray:
    """Both symbol means [mu_0, mu_1] at phase ``theta`` (default: params.theta)."""
    th = params.theta if theta is None else theta
    a = params.amplitude()
    return a * np.cos(np.array([0.0, np.pi]) + th - psi)


def block_mean_derivs(params: ChannelParams, psi: float, theta: float | None = None) -> np.ndarray:
    """Both mean derivatives [mu'_0, mu'_1] with respect to theta."""
    th = params.theta if theta is None else theta
    a = params.amplitude()
    return -a * np.sin(np.array([0.0, np.pi]) + th - psi)


def _splitmix64(v: int) -> int:
    """One step of the splitmix64 hash; used to decorrelate derived seeds."""
    v = (v + 0x9E3779B97F4A7C15) & _MASK64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (v ^ (v >> 31)) & _MASK64


def trial_seed(master_seed: int, index: int) -> int:
    """Independent 64-bit stream seed for trial ``index``: master XOR hash(index).

    The hash decorrelates consecutive indices so trials can run in parallel
    with no stream overlap in practice.
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    return (int(master_seed) & _MASK64) ^ _splitmix64(int(index))


def expit(z):
    """Elementwise logistic 1/(1 + e^-z), exponent clipped at 700 so e^-z never overflows."""
    return 1.0 / (1.0 + np.exp(np.minimum(-z, 700.0)))


def dot(a, b, out=None):
    """Inner product over the last axis, summed as one pairwise ``np.add.reduce``.

    ``a @ b`` on float64 vectors is a BLAS dot whose summation order, and so
    whose last bits, depend on the BLAS thread count.  The product followed
    by numpy's own pairwise reduction gives the same bits on every host, and
    each row of a C-contiguous (rows, N) pair gets exactly the bits of the
    1-D call on that row.  ``out`` may name a scratch array (either operand)
    to hold the product.
    """
    return np.add.reduce(np.multiply(a, b, out=out), axis=-1)


def sample_block(params: ChannelParams, psi: float, n: int, seed: int) -> ObservationBlock:
    """Draw a block of ``n`` homodyne outcomes at LO phase ``psi``.

    Symbols are equiprobable on {0, 1}. Outcomes are Gaussian with the
    symbol-conditional mean and variance of the link.  One SFC64 generator
    keyed by ``seed & (2**64 - 1)`` first yields ceil(n/64) raw 64-bit words,
    whose bits, read least significant first from little-endian bytes on any
    host, are the symbols; the same generator then draws the noise.  A block
    is therefore a pure function of (params, psi, n, seed): same inputs,
    bit-identical outputs within one numpy version, and distinct seeds give
    independent streams.
    """
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    key = int(seed) & _MASK64
    bits = SFC64(key)
    words = bits.random_raw(-(-n // 64)).astype("<u8", copy=False)
    s = np.unpackbits(words.view(np.uint8), count=n, bitorder="little").astype(np.int64)
    x = Generator(bits).standard_normal(n)
    x *= np.sqrt(params.noise_var())
    x += block_means(params, psi).take(s)
    return ObservationBlock(x=x, s_true=s, seed=key)
