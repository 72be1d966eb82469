import math

import numpy as np
import pytest

from qisac import (
    ChannelParams,
    ObservationBlock,
    block_mean_derivs,
    block_means,
    canonical_phase,
    sample_block,
    trial_seed,
)
from qisac.physics import BlockDraw, BlockSeed, _seed_words, block_seeds, dot, draw_block


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


@pytest.mark.parametrize("E,eta,Na", [(1e308, 1.0, 3.0), (1e-300, 1e-300, 3.0),
                                       (1e-200, 1e-200, 3.0), (4.5e307, 1.0, 0.0)])
def test_param_validation_rejects_amplitude_outside_double_range(E, eta, Na):
    # A = sqrt(2*eta*E) overflows or underflows to 0, or A^2/sigma^2 overflows
    with pytest.raises(ValueError, match="must be positive with A\\^2/sigma\\^2 finite"):
        ChannelParams(E=E, eta=eta, Na=Na)


def test_param_validation_accepts_subnormal_energy():
    # E = 1e-320 is subnormal, but A = sqrt(2e-320) ~ 1.4e-160 is a normal double
    p = ChannelParams(E=1e-320, eta=1.0, Na=0.0)
    assert 0.0 < p.amplitude() < 1e-159
    assert 0.0 < p.amplitude() ** 2 / p.noise_var()


def test_symbol_mean_values():
    p = ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=0.7)
    # zero offset: cos(0) = 1 and cos(pi) = -1 are exact
    assert block_means(p, 0.7).tolist() == [4.0, -4.0]
    # quarter-turn offset: both means vanish
    q = ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=np.pi / 2)
    assert np.all(np.abs(block_means(q, 0.0)) < 1e-12)
    # an explicit theta overrides params.theta
    assert np.array_equal(block_means(q, 0.7, 0.7), block_means(p, 0.7))


def test_symbol_mean_deriv_values():
    p = ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=1.1)
    d = block_mean_derivs(p, 1.1)
    assert d[0] == 0.0
    assert abs(d[1]) < 1e-12
    q = ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=np.pi / 2)
    assert np.allclose(block_mean_derivs(q, 0.0), [-4.0, 4.0], rtol=1e-15, atol=0)


def test_means_depend_only_on_offset():
    rng = np.random.default_rng(11)
    for _ in range(50):
        theta, psi, delta = rng.uniform(-10, 10, size=3)
        a = block_means(ChannelParams(10.0, 0.8, 3.0, theta), psi)
        b = block_means(ChannelParams(10.0, 0.8, 3.0, theta + delta), psi + delta)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-9)


def test_antipodality():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = ChannelParams(10.0, 0.8, 3.0, rng.uniform(-10, 10))
        psi = rng.uniform(-10, 10)
        mu = block_means(p, psi)
        assert np.isclose(mu[1], -mu[0], atol=1e-12)
        d = block_mean_derivs(p, psi)
        assert np.isclose(d[1], -d[0], atol=1e-12)


def test_block_means_match_scalar_op():
    # carrier phases phi_0 = 0 and phi_1 = pi: mu_m = A*cos(phi_m + theta - psi)
    p = ChannelParams(3.0, 0.5, 1.0, theta=0.9)
    mu = block_means(p, 0.2)
    assert mu[0] == p.amplitude() * np.cos(0.0 + 0.9 - 0.2)
    assert mu[1] == p.amplitude() * np.cos(np.pi + 0.9 - 0.2)


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
    for m, mu in enumerate(block_means(p, 0.0)):
        xs = blk.x[blk.s_true == m]
        assert abs(xs.mean() - mu) < 4 * sigma / math.sqrt(len(xs))
        assert abs(xs.var() - p.noise_var()) < 0.05 * p.noise_var()
    # equiprobable symbols
    assert abs(blk.s_true.mean() - 0.5) < 5 / math.sqrt(n)


def test_sample_block_symbols_are_raw_word_bits():
    # symbol 64*j + k is bit k of the j-th raw word of SFC64(seed & (2**64 - 1)),
    # whatever the host's byte order, and the noise follows from the same
    # generator; a negative seed is reduced to 64 bits
    p = ChannelParams(10.0, 0.8, 3.0, theta=0.3)
    n, seed = 200, -12345
    key = seed & (2**64 - 1)
    bits = np.random.SFC64(key)
    words = [int(w) for w in bits.random_raw(4)]
    expected = [(words[i // 64] >> (i % 64)) & 1 for i in range(n)]
    noise = np.random.Generator(bits).standard_normal(n)
    blk = sample_block(p, 0.1, n, seed=seed)
    assert blk.s_true.dtype == np.int64
    assert blk.s_true.tolist() == expected
    assert blk.seed == key
    means = block_means(p, 0.1)
    assert np.array_equal(blk.x, noise * math.sqrt(p.noise_var()) + means[blk.s_true])
    # the symbols of a shorter block are a prefix of a longer one's
    assert sample_block(p, 0.1, 64, seed=seed).s_true.tolist() == expected[:64]


def test_blocks_composed_from_one_draw_equal_their_own_draws():
    # a draw holds what a block shares with every channel and LO phase: the
    # blocks composed from it are bit-identical to blocks drawn alone, and
    # they share its read-only symbols, so no block can alter a sibling
    n, seed = 300, block_seeds(77, 3, 1)[0]
    draw = draw_block(n, seed)
    assert isinstance(draw, BlockDraw) and draw.n == n and draw.key == seed.key
    blocks = []
    for params, psi in ((ChannelParams(10.0, 0.8, 3.0, theta=0.3), 0.1),
                        (ChannelParams(2.0, 0.5, 0.0, theta=2.0), 1.2)):
        shared = sample_block(params, psi, n, draw)
        for alone in (sample_block(params, psi, n, seed), sample_block(params, psi, n, seed.key)):
            assert shared.x.tobytes() == alone.x.tobytes()
            assert shared.s_true.tobytes() == alone.s_true.tobytes()
            assert shared.seed == alone.seed == seed.key
        assert shared.s_true is draw.s_true
        blocks.append(shared)
    for arr in (blocks[0].s_true, draw.z):
        with pytest.raises(ValueError):
            arr[0] = 1
    assert blocks[1].s_true.tobytes() == sample_block(ChannelParams(2.0, 0.5, 0.0), 1.2, n,
                                                      seed).s_true.tobytes()
    with pytest.raises(ValueError):
        sample_block(ChannelParams(10.0, 0.8, 3.0), 0.1, n - 1, draw)
    with pytest.raises(ValueError):
        draw_block(0, 1)


def test_dot_is_the_pairwise_sum_row_by_row():
    rng = np.random.default_rng(11)
    for n in (1, 7, 8192, 20000, 50001):
        a = rng.standard_normal((3, n))
        b = rng.standard_normal((3, n))
        rows = dot(a, b)
        for i in range(3):
            one = dot(a[i], b[i])
            assert one == np.add.reduce(a[i] * b[i])
            assert rows[i] == one
        scratch = a[0].copy()
        assert dot(scratch, b[0], out=scratch) == dot(a[0], b[0])


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


def test_precomputed_block_seeds_match_numpy_seeding():
    # the vectorised seed hash reproduces SeedSequence(key).generate_state(3,
    # uint64), so SFC64 keyed by a BlockSeed starts in the state SFC64(key)
    # does, for random keys and for the edges of numpy's one- and two-word keys
    rng = np.random.default_rng(2024)
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    keys = np.concatenate([rng.integers(0, 2**64 - 1, 5000, dtype=np.uint64, endpoint=True),
                           np.array(edges, dtype=np.uint64)])
    words = _seed_words(keys)
    for key, w in zip(keys.tolist(), words):
        seeded = np.random.SFC64(BlockSeed(key, w)).state
        plain = np.random.SFC64(key).state
        assert seeded["state"]["state"].tolist() == plain["state"]["state"].tolist(), key

    # block_seeds keys block t of a trial as trial_seed(master, t), from any start
    p = ChannelParams(10.0, 0.8, 3.0, theta=0.3)
    seeds = block_seeds(-7, 5, 20)
    assert [s.key for s in seeds] == [trial_seed(-7, t) for t in range(5, 25)]
    for s in seeds[:4]:
        by_seed = sample_block(p, 0.2, 300, s)
        by_key = sample_block(p, 0.2, 300, s.key)
        assert by_seed.x.tobytes() == by_key.x.tobytes()
        assert by_seed.s_true.tobytes() == by_key.s_true.tobytes()
        assert by_seed.seed == by_key.seed == s.key and type(by_seed.seed) is int
    with pytest.raises(ValueError):
        block_seeds(1, -1, 4)
