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
container, the mean/derivative formulas, a bit-reproducible block sampler
with the per-trial derivation of its seeds, the overflow-safe logistic
shared by EM and the Fisher score, and the one reduction order (:func:`dot`)
of every float64 inner product in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "BlockDraw",
    "BlockSeed",
    "ChannelParams",
    "ObservationBlock",
    "canonical_phase",
    "block_means",
    "block_mean_derivs",
    "block_seeds",
    "dot",
    "draw_block",
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

    Every field must be finite, the amplitude A must not underflow to 0 and
    the SNR A^2/sigma^2 must not overflow.
    """

    E: float
    eta: float
    Na: float
    theta: float = 0.0

    def __post_init__(self):
        for name in ("E", "eta", "Na", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.E > 0:
            raise ValueError(f"E must be positive, got {self.E}")
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if self.Na < 0:
            raise ValueError(f"Na must be non-negative, got {self.Na}")
        a = self.amplitude()
        if not (a > 0 and math.isfinite(a * a / self.noise_var())):
            raise ValueError(f"A = sqrt(2*eta*E) = {a} must be positive with A^2/sigma^2 "
                             f"finite (E={self.E}, eta={self.eta}, Na={self.Na})")

    def amplitude(self) -> float:
        """Signal amplitude A = sqrt(2 * eta * E)."""
        return math.sqrt(2.0 * self.eta * self.E)

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
    """Both symbol means [mu_0, mu_1] at phase ``theta`` (default: params.theta).

    A * cos(phi_m + theta - psi), with the phase sums formed in Python floats,
    whose + and - round as numpy's do.
    """
    th = params.theta if theta is None else theta
    return params.amplitude() * np.cos([(0.0 + th) - psi, (math.pi + th) - psi])


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

    The hash decorrelates consecutive indices, so each trial draws from its
    own stream, with no overlap in practice, whichever trials run before it.
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    return (int(master_seed) & _MASK64) ^ _splitmix64(int(index))


class BlockSeed(ISeedSequence):
    """A 64-bit block key together with the SFC64 seed words numpy derives from it.

    ``SFC64(BlockSeed(key, words))`` has the state of ``SFC64(key)``, where
    ``words`` is ``SeedSequence(key).generate_state(3, np.uint64)``, but skips
    that hash; :func:`block_seeds` computes the words of many keys at once.
    """

    __slots__ = ("key", "_words")

    def __init__(self, key: int, words: np.ndarray):
        self.key = key
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 3 and dtype is np.uint64:
            return self._words
        return SeedSequence(self.key).generate_state(n_words, dtype)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): its multipliers
# and the start values of its two hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_steps(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) pairs, as uint32 columns, of ``count`` successive hash steps.

    The hash constant advances by the same product whatever the data, so
    every step's constants are known in advance.
    """
    xs, ms = [], []
    for _ in range(count):
        xs.append(init)
        init = init * mult & _MASK32
        ms.append(init)
    return np.array(xs, np.uint32)[:, None], np.array(ms, np.uint32)[:, None]


_POOL_X, _POOL_M = _hash_steps(_INIT_A, _MULT_A, 16)   # 4 to fill the pool, 12 to mix it
_DRAW_X, _DRAW_M = _hash_steps(_INIT_B, _MULT_B, 6)    # 6 words drawn from the pool


def _hashmix(v: np.ndarray, x: np.ndarray, m: np.ndarray) -> np.ndarray:
    v = (v ^ x) * m
    return v ^ (v >> 16)


def _seed_words(keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(k).generate_state(3, np.uint64)`` for each uint64 key k, as (len, 3).

    numpy's hash with one uint32 lane per key: the key's entropy words (low,
    high; a key below 2**32 has the high word 0, as numpy pads a short key)
    and two zero words fill a pool of four, each pool word is mixed into the
    other three, and six words are drawn from the pool and read as
    little-endian pairs.
    """
    pool = np.zeros((4, len(keys)), np.uint32)
    pool[0] = keys & _MASK32
    pool[1] = keys >> 32
    pool = _hashmix(pool, _POOL_X[:4], _POOL_M[:4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        k = 4 + 3 * src
        v = pool[dst] * _MIX_L - _hashmix(pool[src], _POOL_X[k:k + 3], _POOL_M[k:k + 3]) * _MIX_R
        pool[dst] = v ^ (v >> 16)
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1]], _DRAW_X, _DRAW_M)
    return out.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


def block_seeds(master_seed: int, start: int, count: int) -> list[BlockSeed]:
    """The :class:`BlockSeed` of ``trial_seed(master_seed, t)`` for t in [start, start + count).

    Keys and seed words are computed for all ``count`` indices in one
    vectorised pass, far cheaper per key than numpy's own hash.
    """
    if start < 0 or count < 0:
        raise ValueError("start and count must be non-negative")
    idx = np.arange(start, start + count, dtype=np.uint64)
    keys = _splitmix64(idx) ^ np.uint64(int(master_seed) & _MASK64)
    words = _seed_words(keys)
    words.flags.writeable = False
    return [BlockSeed(k, w) for k, w in zip(keys.tolist(), words)]


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


class BlockDraw:
    """The parameter-free part of one block: its key, symbols and unit normals.

    ``s_true`` (int64) and ``z`` (float64, standard normal) are read-only, so
    one draw can back the blocks of several channels or LO phases at once
    (see :func:`sample_block`) and none of them can alter the others.
    """

    __slots__ = ("key", "s_true", "z")

    def __init__(self, key: int, s_true: np.ndarray, z: np.ndarray):
        self.key = key
        self.s_true = s_true
        self.z = z

    @property
    def n(self) -> int:
        return len(self.z)


def _draw(
    n: int, seed: int | BlockSeed, s_out=None, z_out=None
) -> tuple[int, np.ndarray, np.ndarray]:
    """(key, symbols, unit normals) of :func:`draw_block`, in ``s_out`` and ``z_out`` or fresh."""
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    if isinstance(seed, BlockSeed):
        key = seed.key
    else:
        key = seed = int(seed) & _MASK64
    bits = SFC64(seed)
    words = bits.random_raw(-(-n // 64)).astype("<u8", copy=False)
    s = np.unpackbits(words.view(np.uint8), count=n, bitorder="little")
    if s_out is None:
        s = s.astype(np.int64)
    else:
        np.copyto(s_out, s)
        s = s_out
    return key, s, Generator(bits).standard_normal(n, out=z_out)


def draw_block(n: int, seed: int | BlockSeed, *, out=None) -> BlockDraw:
    """Draw the symbols and unit normals of a block of ``n`` outcomes.

    One SFC64 generator keyed by ``seed & (2**64 - 1)`` first yields
    ceil(n/64) raw 64-bit words, whose bits, read least significant first
    from little-endian bytes on any host, are the symbols; the same generator
    then draws n standard normals.  ``seed`` may also be a :class:`BlockSeed`,
    whose precomputed words key the generator exactly as its ``key`` would.
    ``out`` may name a pair of writable C-contiguous arrays of length ``n``,
    int64 and float64, that receive the symbols and the normals instead of
    fresh arrays (``standard_normal(out=)`` draws the same bits); the draw
    then holds read-only views of them, valid until their owner writes them
    again.
    """
    key, s, z = _draw(n, seed, *(out or ()))
    if out is not None:
        s, z = s.view(), z.view()
    s.flags.writeable = False
    z.flags.writeable = False
    return BlockDraw(key, s, z)


def sample_block(
    params: ChannelParams,
    psi: float,
    n: int,
    seed: int | BlockSeed | BlockDraw,
    *,
    out: np.ndarray | None = None,
) -> ObservationBlock:
    """Draw a block of ``n`` homodyne outcomes at LO phase ``psi``.

    Symbols are equiprobable on {0, 1}. Outcomes are Gaussian with the
    symbol-conditional mean and variance of the link: the block is
    ``x = z * sqrt(sigma^2) + mu(psi)[s]`` over the symbols ``s`` and unit
    normals ``z`` of :func:`draw_block`.  A block is therefore a pure
    function of (params, psi, n, seed): same inputs, bit-identical outputs
    within one numpy version, and distinct seeds give independent streams.
    ``seed`` may be an integer, a :class:`BlockSeed` (the block then equals
    the one drawn with its key, ``seed`` field included) or a
    :class:`BlockDraw` already drawn for length ``n``.  Blocks composed from
    one draw share it: the sweep points of one trial draw block t once and
    compose it per channel (common random numbers), and their ``s_true`` is
    that draw's read-only symbol array.  ``out`` may name a writable
    float64 array of length ``n`` that receives ``x`` (the block's ``x`` is
    then ``out`` itself; a draw of the block's own draws its normals into
    it), with the bits of a fresh ``x``.
    """
    sigma = math.sqrt(params.noise_var())
    if isinstance(seed, BlockDraw):
        if seed.n != n:
            raise ValueError(f"block length {n} does not match the draw's {seed.n}")
        key, s, x = seed.key, seed.s_true, np.multiply(seed.z, sigma, out=out)
    else:   # a draw of its own, composed in place
        key, s, x = _draw(n, seed, z_out=out)
        x *= sigma
    x += block_means(params, psi).take(s)
    return ObservationBlock(x=x, s_true=s, seed=key)
