import math

import numpy as np
import pytest

from qisac import (
    ChannelParams,
    ObservationBlock,
    canonical_phase,
    carrier_phase,
    sample_block,
    symbol_mean,
    symbol_mean_deriv,
    trial_seed,
)
from qisac.physics import block_mean_derivs, block_means


def test_canonical_phase_half_open_contract():
    assert canonical_phase(0.0) == 0.0
    assert canonical_phase(1.0) == 1.0
    assert canonical_phase(np.pi) == 0.0
    assert np.isclose(canonical_phase(np.pi + 0.25), 0.25, atol=1e-15)
    assert np.isclose(canonical_phase(-0.25), np.pi - 0.25, atol=1e-15)
    # float modulo of a tiny negative returns the modulus itself; the helper
    # must fold that rounding artifact back into the half-open sector
    assert -1e-60 % np.pi == np.pi
    assert canonical_phase(-1e-60) == 0.0
    for v in np.linspace(-30.0, 30.0, 1001):
        c = canonical_phase(v)
        assert 0.0 <= c < np.pi


def test_amplitude_and_noise_var_exact():
    p = ChannelParams(E=10.0, eta=0.8, Na=3.0)
    assert p.amplitude() == 4.0          # sqrt(2*0.8*10) = sqrt(16)
    assert p.noise_var() == 3.5


def test_param_validation():
    with pytest.raises(ValueError):
        ChannelParams(E=0.0, eta=0.8, Na=3.0)
    with pytest.raises(ValueError):
        ChannelParams(E=10.0, eta=0.0, Na=3.0)
    with pytest.raises(ValueError):
        ChannelParams(E=10.0, eta=1.2, Na=3.0)
    with pytest.raises(ValueError):
        ChannelParams(E=10.0, eta=0.8, Na=-0.1)
    with pytest.raises(ValueError):
        ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=float("nan"))
    for bad in ({"Na": float("nan")}, {"Na": float("inf")}, {"E": float("inf")},
                {"E": float("nan")}, {"eta": float("nan")}):
        with pytest.raises(ValueError):
            ChannelParams(**{"E": 10.0, "eta": 0.8, "Na": 3.0, **bad})


def test_carrier_phase():
    assert carrier_phase(0) == 0.0
    assert carrier_phase(1) == np.pi
    with pytest.raises(ValueError):
        carrier_phase(2)
    with pytest.raises(ValueError):
        carrier_phase(-1)


def test_symbol_mean_values():
    p = ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=0.7)
    # zero offset: cos(0) = 1 and cos(pi) = -1 are exact
    assert symbol_mean(p, 0.7, 0) == 4.0
    assert symbol_mean(p, 0.7, 1) == -4.0
    # quarter-turn offset: both means vanish
    q = ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=np.pi / 2)
    assert abs(symbol_mean(q, 0.0, 0)) < 1e-12


def test_symbol_mean_deriv_values():
    p = ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=1.1)
    assert symbol_mean_deriv(p, 1.1, 0) == 0.0
    assert abs(symbol_mean_deriv(p, 1.1, 1)) < 1e-12
    q = ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=np.pi / 2)
    assert np.isclose(symbol_mean_deriv(q, 0.0, 0), -4.0, rtol=1e-15)


def test_means_depend_only_on_offset():
    rng = np.random.default_rng(11)
    for _ in range(50):
        theta, psi, delta = rng.uniform(-10, 10, size=3)
        for m in (0, 1):
            a = symbol_mean(ChannelParams(10.0, 0.8, 3.0, theta), psi, m)
            b = symbol_mean(ChannelParams(10.0, 0.8, 3.0, theta + delta), psi + delta, m)
            assert np.isclose(a, b, rtol=1e-9, atol=1e-9)


def test_antipodality():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = ChannelParams(10.0, 0.8, 3.0, rng.uniform(-10, 10))
        psi = rng.uniform(-10, 10)
        assert np.isclose(symbol_mean(p, psi, 1), -symbol_mean(p, psi, 0), atol=1e-12)


def test_block_means_match_scalar_op():
    p = ChannelParams(3.0, 0.5, 1.0, theta=0.9)
    mu = block_means(p, 0.2)
    assert mu[0] == symbol_mean(p, 0.2, 0)
    assert mu[1] == symbol_mean(p, 0.2, 1)


def test_block_mean_derivs_match_central_differences():
    rng = np.random.default_rng(13)
    h = 1e-6
    for _ in range(20):
        p = ChannelParams(10.0, 0.8, 3.0, theta=rng.uniform(-4, 4))
        psi, theta = rng.uniform(-4, 4, size=2)
        fd = (block_means(p, psi, theta + h) - block_means(p, psi, theta - h)) / (2 * h)
        assert np.allclose(block_mean_derivs(p, psi, theta), fd, rtol=0, atol=1e-8)
        # default theta is params.theta, as for block_means
        assert np.array_equal(block_mean_derivs(p, psi), block_mean_derivs(p, psi, p.theta))


def test_sample_block_deterministic():
    p = ChannelParams(10.0, 0.8, 3.0, theta=0.3)
    b1 = sample_block(p, 0.1, 500, seed=99)
    b2 = sample_block(p, 0.1, 500, seed=99)
    assert np.array_equal(b1.x, b2.x)
    assert np.array_equal(b1.s_true, b2.s_true)
    b3 = sample_block(p, 0.1, 500, seed=100)
    assert not np.array_equal(b1.x, b3.x)


def test_sample_block_statistics():
    p = ChannelParams(10.0, 0.8, 3.0, theta=0.5)
    n = 200_000
    blk = sample_block(p, 0.0, n, seed=7)
    sigma = math.sqrt(p.noise_var())
    for m in (0, 1):
        xs = blk.x[blk.s_true == m]
        mu = symbol_mean(p, 0.0, m)
        assert abs(xs.mean() - mu) < 4 * sigma / math.sqrt(len(xs))
        assert abs(xs.var() - p.noise_var()) < 0.05 * p.noise_var()
    # equiprobable symbols
    assert abs(blk.s_true.mean() - 0.5) < 5 / math.sqrt(n)


def test_sample_block_rejects_empty():
    p = ChannelParams(10.0, 0.8, 3.0)
    with pytest.raises(ValueError):
        sample_block(p, 0.0, 0, seed=1)


def test_observation_block_validation():
    with pytest.raises(ValueError):
        ObservationBlock(x=np.zeros(3), s_true=np.zeros(2, dtype=int), seed=0)
    with pytest.raises(ValueError):
        ObservationBlock(x=np.zeros(0), s_true=np.zeros(0, dtype=int), seed=0)
    blk = ObservationBlock(x=np.zeros(4), s_true=np.zeros(4, dtype=int), seed=0)
    assert blk.n == 4


def test_trial_seed_properties():
    # XOR structure: the index hash cancels between two master seeds
    for i in (0, 1, 17, 12345):
        assert trial_seed(0xABCDEF, i) ^ trial_seed(0, i) == 0xABCDEF
    # distinct indices give distinct streams
    seeds = {trial_seed(42, i) for i in range(2000)}
    assert len(seeds) == 2000
    assert trial_seed(42, 7) == trial_seed(42, 7)
    with pytest.raises(ValueError):
        trial_seed(42, -1)


def test_trial_seed_blocks_independent():
    p = ChannelParams(10.0, 0.8, 3.0, theta=0.3)
    b1 = sample_block(p, 0.0, 100, trial_seed(5, 0))
    b2 = sample_block(p, 0.0, 100, trial_seed(5, 1))
    assert not np.array_equal(b1.x, b2.x)
