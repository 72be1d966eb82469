import math
from dataclasses import replace

import numpy as np
import pytest

from qisac import ChannelParams, EmConfig, fisher_symbol, run_em, sample_block, wrap_pi
from qisac.em import (
    e_step,
    loglik,
    m_step,
    m_step_derivatives,
    m_step_objective,
    reflection_margin,
)
from qisac.em import _FLAT_RESP_TOL, _ONE_PASS_MAX, _TIE_BAND
from qisac.physics import ObservationBlock, block_means, canonical_phase, expit


def _block(x, s=None, seed=0):
    x = np.asarray(x, dtype=float)
    s = np.zeros(len(x), dtype=int) if s is None else np.asarray(s)
    return ObservationBlock(x=x, s_true=s, seed=seed)


def _fold(d):
    """|d| reduced mod pi to [0, pi/2]."""
    d = abs(wrap_pi(d))
    return min(d, np.pi - d)


def _random_case(rng, n=60):
    params = ChannelParams(
        E=float(rng.uniform(2.0, 20.0)),
        eta=float(rng.uniform(0.3, 1.0)),
        Na=float(rng.uniform(0.0, 4.0)),
        theta=float(rng.uniform(0.0, np.pi)),
    )
    psi = float(rng.uniform(0.0, np.pi))
    block = sample_block(params, psi, n, seed=int(rng.integers(1 << 30)))
    theta = float(rng.uniform(0.0, np.pi))
    gamma = e_step(block, params, psi, theta)
    return params, psi, block, theta, gamma


# -------------------------------------------------------------------- E-step

def test_e_step_symmetric_outcome(params_common):
    blk = _block([0.0])
    g = e_step(blk, params_common, params_common.theta, 0.1)  # antipodal means
    assert np.allclose(g, 0.5)


def test_e_step_dominant_component(params_common):
    # x far on the positive side, mu_0 > mu_1
    blk = _block([50.0])
    g = e_step(blk, params_common, params_common.theta, params_common.theta)
    assert g[0, 0] > 1 - 1e-9


def test_e_step_degenerate_quarter_turn(params_common):
    blk = sample_block(params_common, params_common.theta + np.pi / 2, 100, seed=3)
    g = e_step(blk, params_common, params_common.theta + np.pi / 2, params_common.theta)
    assert np.allclose(g, 0.5, atol=1e-10)


def test_e_step_rows_sum_to_one():
    rng = np.random.default_rng(8)
    for _ in range(10):
        params, psi, block, theta, gamma = _random_case(rng)
        assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-12)
        assert gamma.min() >= 0.0


def test_e_step_depends_on_offset_only():
    rng = np.random.default_rng(9)
    params, psi, block, theta, _ = _random_case(rng)
    delta = 0.77
    g1 = e_step(block, params, psi, theta)
    g2 = e_step(block, params, psi + delta, theta + delta)
    assert np.allclose(g1, g2, atol=1e-12)


# ----------------------------------------------------------------- objective

def test_objective_exact_fit():
    p = ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=0.0)
    theta_star, psi = 0.9, 0.2
    x = np.full(5, p.amplitude() * np.cos(theta_star - psi))
    blk = _block(x)
    gamma = np.column_stack([np.ones(5), np.zeros(5)])
    assert m_step_objective(blk, p, psi, theta_star, gamma) == 0.0


def test_objective_periodic():
    rng = np.random.default_rng(10)
    params, psi, block, theta, gamma = _random_case(rng)
    j1 = m_step_objective(block, params, psi, theta, gamma)
    j2 = m_step_objective(block, params, psi, theta + 2 * np.pi, gamma)
    assert np.isclose(j1, j2, rtol=1e-9)


def test_objective_label_swap_matches_half_turn():
    rng = np.random.default_rng(11)
    params, psi, block, theta, gamma = _random_case(rng)
    j1 = m_step_objective(block, params, psi, theta, gamma)
    j2 = m_step_objective(block, params, psi, theta + np.pi, gamma[:, ::-1])
    assert np.isclose(j1, j2, rtol=1e-9)


# --------------------------------------------------------- M-step derivatives

def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(10):
        params, psi, block, theta, gamma = _random_case(rng)

        def J(t):
            return m_step_objective(block, params, psi, t, gamma)

        g, h = m_step_derivatives(block, params, psi, theta, gamma)
        d = 1e-5
        g_fd = (J(theta + d) - J(theta - d)) / (2 * d)
        assert np.isclose(g, g_fd, rtol=1e-6, atol=1e-8 * max(1.0, abs(g)))
        dh = 1e-4
        h_fd = (J(theta + dh) - 2 * J(theta) + J(theta - dh)) / dh**2
        assert np.isclose(h, h_fd, rtol=1e-4, atol=1e-6 * max(1.0, abs(h)))


def test_gradient_stationary_at_noiseless_truth():
    p = ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=0.0)
    theta_star, psi = 1.1, 0.4
    x = np.full(8, p.amplitude() * np.cos(theta_star - psi))
    blk = _block(x)
    gamma = np.column_stack([np.ones(8), np.zeros(8)])
    g, _ = m_step_derivatives(blk, p, psi, theta_star, gamma)
    assert abs(g) < 1e-9 * p.amplitude() ** 2 * len(x)


def test_newton_update_decreases_objective():
    rng = np.random.default_rng(13)
    for _ in range(5):
        params, psi, block, theta, gamma = _random_case(rng)
        theta_new = m_step(block, params, psi, theta, gamma)
        j0 = m_step_objective(block, params, psi, theta, gamma)
        j1 = m_step_objective(block, params, psi, theta_new, gamma)
        assert j1 <= j0 + 1e-9


def test_newton_update_matches_closed_form_minimizer():
    # J depends on theta only through u = cos(theta - psi), as a quadratic
    # minimized at u* = S/(N*A), so its minimizers are psi +- arccos(u*).
    # J cannot tell the two apart, so the update must keep theta_t's side
    # of psi wherever the result is off the axis sin(theta - psi) = 0.
    rng = np.random.default_rng(14)
    for _ in range(200):
        params, psi, block, theta, gamma = _random_case(rng)
        s = float((gamma[:, 0] - gamma[:, 1]) @ block.x)
        u_star = np.clip(s / (block.n * params.amplitude()), -1.0, 1.0)
        got = m_step(block, params, psi, theta, gamma)
        expected = psi + np.sign(np.sin(got - psi)) * np.arccos(u_star)
        assert abs((got - expected + np.pi) % (2 * np.pi) - np.pi) < 1e-8
        if abs(np.sin(got - psi)) > 1e-6:
            assert np.sign(np.sin(got - psi)) == np.sign(np.sin(theta - psi))


# ------------------------------------------------------------ log-likelihood

def _loglik_reference(block, params, psi, theta):
    """Two-component log-sum-exp of the mixture density, term by term."""
    s2 = params.noise_var()
    mu = block_means(params, psi, theta)
    logn = -0.5 * (block.x[:, None] - mu[None, :]) ** 2 / s2 - 0.5 * math.log(2 * math.pi * s2)
    return float((np.logaddexp(logn[:, 0], logn[:, 1]) + math.log(0.5)).sum())


def test_loglik_matches_log_sum_exp_reference():
    rng = np.random.default_rng(15)
    y_max = 0.0
    for e in np.logspace(-2, 4, 13):
        for na in (0.0, 2.0):
            params = ChannelParams(E=float(e), eta=1.0, Na=na, theta=float(rng.uniform(0, np.pi)))
            psi = float(rng.uniform(0, np.pi))
            block = sample_block(params, psi, 500, seed=int(rng.integers(1 << 30)))
            # the truth, the quarter turn u = 0, and an arbitrary phase
            for theta in (params.theta, psi + np.pi / 2, float(rng.uniform(0, np.pi))):
                ref = _loglik_reference(block, params, psi, theta)
                assert abs(loglik(block, params, psi, theta) - ref) <= 1e-12 * abs(ref)
            mu = params.amplitude() * math.cos(params.theta - psi)
            y_max = max(y_max, float(np.abs(mu * block.x).max()) / params.noise_var())
    assert y_max > 400  # exp(-2y) underflows in the log-cosh form


# -------------------------------------------------------------------- run_em

def test_run_em_noiseless_recovery():
    # One block identifies the phase only up to reflection about the LO
    # phase, so the testable quantity is the offset magnitude |theta - psi|.
    p = ChannelParams(E=1e4, eta=1.0, Na=0.0, theta=np.pi / 4)
    blk = sample_block(p, 0.0, 500, seed=17)
    res = run_em(blk, p, 0.0)
    assert res.converged
    assert abs(abs(wrap_pi(res.theta_hat - 0.0)) - np.pi / 4) < 1e-3


def test_run_em_common_operating_point(params_common):
    # mid-range LO offset, N=1000, started near the true phase so the
    # reflection tie is broken toward it: the error should stay within
    # 3 CRLB standard deviations for at least 90% of seeds
    psi = math.radians(70.0)
    cfg = EmConfig(init_theta=math.radians(50.0))
    sigma = 1.0 / math.sqrt(fisher_symbol(params_common, psi, n=1000).block)
    hits = 0
    seeds = range(20)
    for s in seeds:
        blk = sample_block(params_common, psi, 1000, seed=1000 + s)
        res = run_em(blk, params_common, psi, cfg)
        err = abs(wrap_pi(res.theta_hat - params_common.theta))
        hits += err <= 3.0 * sigma
    assert hits >= 18


def test_run_em_degenerate_quarter_turn(params_common):
    # At a quarter-turn offset the two mixture means coincide and the phase
    # is unidentifiable: EM either reports the flat-likelihood condition or
    # fits some offset of near-quarter-turn magnitude (sample-variance
    # fluctuations above sigma^2 pull the fitted magnitude below pi/2).
    psi = params_common.theta + np.pi / 2
    for s in range(10):
        blk = sample_block(params_common, psi, 400, seed=s)
        res = run_em(blk, params_common, psi)
        assert res.flat_likelihood or abs(wrap_pi(res.theta_hat - psi)) > np.pi / 2 - 0.3


def test_run_em_loglik_monotone(params_common):
    for s in range(25):
        psi = (s * 0.13) % np.pi
        blk = sample_block(params_common, psi, 200, seed=300 + s)
        res = run_em(blk, params_common, psi)
        assert np.all(np.diff(res.loglik_trace) >= -1e-9)


def test_run_em_result_invariants(params_common):
    blk = sample_block(params_common, 0.3, 300, seed=23)
    res = run_em(blk, params_common, 0.3)
    assert 0.0 <= res.theta_hat < np.pi
    assert np.allclose(res.responsibilities.sum(axis=1), 1.0, atol=1e-12)
    assert np.array_equal(res.s_hat, res.responsibilities.argmax(axis=1))
    assert res.iterations >= 1


def test_run_em_half_turn_start_flips_labels(params_common):
    blk = sample_block(params_common, 0.1, 400, seed=29)
    theta0 = 0.37
    r1 = run_em(blk, params_common, 0.1, EmConfig(init_theta=theta0))
    r2 = run_em(blk, params_common, 0.1,
                EmConfig(init_theta=theta0 + np.pi))
    d = abs(r1.theta_hat - r2.theta_hat) % np.pi
    assert min(d, np.pi - d) < 1e-5
    assert np.array_equal(r2.s_hat, 1 - r1.s_hat)


def test_run_em_responsibilities_match_e_step(params_common):
    # the returned responsibilities are e_step's at the unreduced converged
    # angle, which stays within a quarter turn of a warm start
    blk = sample_block(params_common, 0.1, 400, seed=29)
    for theta0 in (0.37, 0.37 + np.pi, 0.37 - np.pi):
        res = run_em(blk, params_common, 0.1, EmConfig(init_theta=theta0))
        theta_u = res.theta_hat + np.pi * round((theta0 - res.theta_hat) / np.pi)
        ref = e_step(blk, params_common, 0.1, theta_u)
        assert np.allclose(res.responsibilities, ref, rtol=0, atol=1e-12)
        assert np.array_equal(res.s_hat, ref.argmax(axis=1))


def test_run_em_result_independent_of_start():
    # The offset-magnitude fixed point is unique, so the cold start at psi
    # and any start off the quarter turn reach the same |theta_hat - psi|
    # (folded mod pi: a start past the quarter turn converges to the
    # label-swapped angle) and the same likelihood.  The true offset stays
    # within 1.2 rad of psi: nearer the quarter turn the EM map contracts
    # so slowly that l_max iterations do not reach eps = 1e-10.
    rng = np.random.default_rng(2024)
    cfg = EmConfig(eps=1e-10)
    for _ in range(60):
        psi = float(rng.uniform(0.0, np.pi))
        offset = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 1.2))
        params = ChannelParams(
            E=float(np.exp(rng.uniform(math.log(2.0), math.log(1000.0)))),
            eta=float(rng.uniform(0.3, 1.0)),
            Na=float(rng.uniform(0.0, 4.0)),
            theta=(psi + offset) % np.pi,
        )
        n = int(rng.integers(50, 2001))
        blk = sample_block(params, psi, n, seed=int(rng.integers(1 << 30)))
        cold = run_em(blk, params, psi, cfg)
        assert cold.converged
        for k in range(8):
            theta0 = k * np.pi / 8
            if abs(_fold(theta0 - psi) - np.pi / 2) < 0.05:
                continue
            warm = run_em(blk, params, psi, replace(cfg, init_theta=theta0))
            assert warm.converged
            assert abs(_fold(warm.theta_hat - psi) - _fold(cold.theta_hat - psi)) < 1e-7
            ll_c, ll_w = cold.loglik_trace[-1], warm.loglik_trace[-1]
            assert abs(ll_w - ll_c) <= 1e-12 * abs(ll_c)


def _assert_decisions_follow_responsibilities(res):
    """s_hat and flat_likelihood are the argmax and the flat rule on gamma."""
    g = res.responsibilities
    assert res.s_hat.dtype == np.int64
    assert np.array_equal(res.s_hat, g.argmax(axis=1))
    assert res.flat_likelihood == bool(np.abs(g[:, 0] - 0.5).max() < 0.05)


def test_run_em_decisions_at_rounding_ties(params_common):
    # z = 2*mu*x/s2 this close to 0 makes expit(z) and expit(-z) round to
    # the same value, and the argmax then picks label 0 although z < 0.
    # The offset stays within a quarter turn of psi, so theta_hat is the
    # unreduced angle and z can be recomputed exactly as run_em forms it.
    psi = 0.5
    a, s2 = params_common.amplitude(), params_common.noise_var()
    base = sample_block(replace(params_common, theta=psi + 0.2), psi, 200, seed=41).x
    targets = np.array([-1e-17, -1.2e-16, -2e-16])

    def fit(tail):
        x = np.concatenate([base, [0.0, -0.0, 5e-324, -5e-324], tail])
        res = run_em(_block(x), params_common, psi)
        return x, res, x * (2.0 * a * math.cos(res.theta_hat - psi) / s2)

    _, res, _ = fit(np.zeros(3))
    scale = 2.0 * a * math.cos(res.theta_hat - psi) / s2
    x, res, z = fit(targets / scale)
    assert 0.0 < res.theta_hat - psi + 0.5 < 1.0
    zt = z[-4:]
    assert zt[0] < 0 and zt[0] > -1e-322          # a negative subnormal
    assert np.allclose(zt[1:], targets, rtol=1e-12, atol=0)
    ties = expit(zt) == expit(-zt)
    assert ties.tolist() == [True, True, True, False]
    assert res.s_hat[-4:].tolist() == [0, 0, 0, 1]
    assert res.s_hat[-7:-4].tolist() == [0, 0, 0]  # x = 0.0, -0.0, +subnormal
    _assert_decisions_follow_responsibilities(res)
    assert not res.flat_likelihood


def test_run_em_quarter_turn_start_is_flat(params_common):
    # started a quarter turn from psi the mean is A*cos(pi/2) ~ 1e-16, so
    # every z is tiny, the likelihood is flat and some z are rounding ties
    psi = 0.3
    for seed in range(5):
        blk = sample_block(params_common, psi, 300, seed=43 + seed)
        res = run_em(blk, params_common, psi, EmConfig(init_theta=psi + np.pi / 2))
        g = res.responsibilities
        assert res.flat_likelihood
        assert np.any(g[:, 0] == g[:, 1])
        _assert_decisions_follow_responsibilities(res)


def test_run_em_decisions_follow_responsibilities_randomized():
    rng = np.random.default_rng(77)
    flats = 0
    for _ in range(200):
        psi = float(rng.uniform(0.0, np.pi))
        params = ChannelParams(
            E=float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3)))),
            eta=float(rng.uniform(0.3, 1.0)),
            Na=float(rng.uniform(0.0, 4.0)),
            theta=float(rng.uniform(0.0, np.pi)),
        )
        blk = sample_block(params, psi, int(rng.integers(1, 400)),
                           seed=int(rng.integers(1 << 30)))
        init = None if rng.random() < 0.5 else float(rng.uniform(-np.pi, 2 * np.pi))
        res = run_em(blk, params, psi, EmConfig(init_theta=init))
        _assert_decisions_follow_responsibilities(res)
        flats += res.flat_likelihood
    assert 0 < flats < 200


def test_run_em_loglik_trace_is_loglik_at_iterates(params_common):
    # iterate k is the final angle of the same run capped at k iterations;
    # near psi no iterate is reduced mod pi, so theta_hat is that angle.
    # At a 0.4 rad offset the fixed point |cos| ~ 0.92 lies well inside 1, so
    # S/(N*A) does not clip and EM needs several steps on any stream
    psi = params_common.theta - 0.4
    blk = sample_block(params_common, psi, 500, seed=53)
    cfg = EmConfig(eps=1e-9)
    res = run_em(blk, params_common, psi, cfg)
    assert res.iterations >= 3
    iterates = [run_em(blk, params_common, psi, replace(cfg, l_max=k)).theta_hat
                for k in range(1, res.iterations + 1)]
    assert all(abs(th - psi) < 1.0 for th in iterates)
    expected = np.array([loglik(blk, params_common, psi, th) for th in iterates])
    assert np.array_equal(res.loglik_trace, expected)
    assert res.loglik_trace is res.loglik_trace      # built once, then kept


def test_reflection_margin_is_the_loglik_difference():
    # the closed-form quadratic difference and the two soft terms give
    # loglik(cand) - loglik(theta) on the block's |x| alone
    rng = np.random.default_rng(2024)
    for energy in (1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3, 1e4):
        for _ in range(6):
            params = ChannelParams(E=energy, eta=float(rng.uniform(0.3, 1.0)),
                                   Na=float(rng.uniform(0.0, 4.0)),
                                   theta=float(rng.uniform(0.0, np.pi)))
            psi = float(rng.uniform(0.0, np.pi))
            n = int(rng.integers(1, 5000))
            blk = sample_block(params, psi, n, seed=int(rng.integers(1 << 62)))
            theta, cand = (float(v) for v in rng.uniform(0.0, np.pi, 2))
            ll0 = loglik(blk, params, psi, theta)
            ll1 = loglik(blk, params, psi, cand)
            abs_x = np.abs(blk.x)
            got = reflection_margin(abs_x, float(abs_x.sum()), params, psi, theta, cand)
            assert abs(got - (ll1 - ll0)) <= 1e-12 * max(abs(ll0), abs(ll1)), (energy, n)
            assert reflection_margin(abs_x, float(abs_x.sum()), params, psi, theta, theta) == 0.0


def _run_em_formulas(x, params, psi, config):
    """run_em written plainly: a fresh array per pass and a bool decision mask."""
    a, s2 = params.amplitude(), params.noise_var()
    theta = psi if config.init_theta is None else config.init_theta
    for _ in range(config.l_max):
        t = x * (a * math.cos(theta - psi) / s2)
        s = float(np.add.reduce(np.tanh(t) * x))
        u = min(1.0, max(-1.0, s / (len(x) * a)))
        new = psi + math.copysign(math.acos(u), math.sin(theta - psi))
        step, theta = new - theta, new
        if abs(step) < config.eps:
            break
    z = x * (2.0 * a * math.cos(theta - psi) / s2)
    s_hat = (z < 0.0).astype(np.int64)
    tie = np.flatnonzero((z < 0.0) & (z > -_TIE_BAND))
    s_hat[tie] = expit(-z[tie]) > expit(z[tie])
    flat = bool(np.abs(z).max() < 1.0 and max(abs(expit(z.max()) - 0.5),
                                              abs(expit(z.min()) - 0.5)) < _FLAT_RESP_TOL)
    return canonical_phase(theta), s_hat, flat


def test_run_em_and_reflection_margin_match_plain_formulas():
    # the scratch reuse in run_em and reflection_margin changes no bit: on
    # random blocks salted with exact ties (expit(z) == expit(-z)), +-0.0,
    # |z| inside the tie band and quarter-turn (flat-likelihood) starts,
    # estimate, decisions, flat flag and margin equal the plain formulas
    rng = np.random.default_rng(4242)
    salt = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 3e-15, -3e-15,
                     -1e-17, -2e-16, 1e-13, -1e-13])
    flats = ties = 0
    for k in range(120):
        params = ChannelParams(E=float(np.exp(rng.uniform(math.log(1e-2), math.log(1e3)))),
                               eta=float(rng.uniform(0.3, 1.0)), Na=float(rng.uniform(0.0, 4.0)),
                               theta=float(rng.uniform(0.0, np.pi)))
        psi = float(rng.uniform(0.0, np.pi))
        n = int(rng.integers(1, 600))
        x = sample_block(params, psi, n, seed=int(rng.integers(1 << 62))).x
        x = rng.permutation(np.concatenate([x, rng.choice(salt, int(rng.integers(0, 8)))]))
        if k % 4 == 0:
            init = psi + np.pi / 2
        elif k % 4 == 1:
            init = None
        else:
            init = float(rng.uniform(-np.pi, 2 * np.pi))
        cfg = EmConfig(eps=float(rng.choice([1e-3, 1e-9])), init_theta=init)
        res = run_em(_block(x), params, psi, cfg)
        theta_hat, s_hat, flat = _run_em_formulas(x, params, psi, cfg)
        assert res.theta_hat == theta_hat, k
        assert res.s_hat.dtype == np.int64 and np.array_equal(res.s_hat, s_hat), k
        assert res.flat_likelihood == flat, k
        flats += flat
        z = x * (2.0 * params.amplitude() * math.cos(res.theta_hat - psi) / params.noise_var())
        ties += int(np.any((expit(z) == expit(-z)) & (z < 0.0)))

        abs_x = np.abs(x)
        sum_abs = float(abs_x.sum())
        cand = float(rng.uniform(0.0, np.pi))
        s2, a = params.noise_var(), params.amplitude()
        m0, m1 = abs(a * math.cos(theta_hat - psi)), abs(a * math.cos(cand - psi))
        soft = (float(np.log1p(np.exp(abs_x * (-2.0 * m1 / s2))).sum())
                - float(np.log1p(np.exp(abs_x * (-2.0 * m0 / s2))).sum()))
        plain = soft + (m1 - m0) * (2.0 * sum_abs - len(abs_x) * (m1 + m0)) / (2.0 * s2)
        assert reflection_margin(abs_x, sum_abs, params, psi, theta_hat, cand) == plain, k
    assert 0 < flats < 120
    assert ties > 0


def test_run_em_matches_plain_formulas_at_the_quarter_turn_and_for_one_outcome():
    # the decisions come from the sign of x unless a tie or the flat test
    # needs z = k*x.  cos of a double is never exactly 0, so k = 0 itself
    # cannot arise; the nearest case is an estimate pinned at the quarter turn
    # (S = 0 on an all-zero block, or a start there), where k ~ 1e-16 and
    # every |z| sits inside the tie band.  Blocks of one outcome cover the
    # extreme and tie readings of a single |x|.
    rng = np.random.default_rng(77)
    params = ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=0.6)
    cases = []
    for psi in (0.0, 0.4, np.pi / 2, 2.9):
        quarter = psi + np.pi / 2
        cases += [(np.zeros(17), psi, None), (np.zeros(1), psi, quarter),
                  (rng.standard_normal(40), psi, quarter),
                  (np.array([0.0, -0.0, 5e-324, -1e-300, 2.0, -3.0]), psi, quarter)]
        for v in (0.0, -0.0, 5e-324, -5e-324, -1e-13, 1e-13, -0.3, 0.3, -7.5, 7.5):
            cases += [(np.array([v]), psi, None), (np.array([v]), psi, quarter),
                      (np.array([v]), psi, float(rng.uniform(0.0, np.pi)))]
    flats = 0
    for k, (x, psi, init) in enumerate(cases):
        cfg = EmConfig(init_theta=init)
        res = run_em(_block(x), params, psi, cfg)
        theta_hat, s_hat, flat = _run_em_formulas(x, params, psi, cfg)
        assert res.theta_hat == theta_hat, k
        assert res.s_hat.dtype == np.int64 and np.array_equal(res.s_hat, s_hat), k
        assert res.flat_likelihood == flat, k
        flats += flat
        # the responsibilities, built on demand, agree with the decisions
        g = res.responsibilities
        assert np.array_equal(res.s_hat, (g[:, 1] > g[:, 0]).astype(np.int64)), k
    assert 0 < flats < len(cases)


def test_reflection_margin_matches_plain_formula_on_both_sides_of_one_pass_max():
    # up to _ONE_PASS_MAX outcomes the two soft terms run as one (2, N) pass,
    # beyond it as two 1-D passes; each gives the bits of the plain formula
    rng = np.random.default_rng(515)
    for n in (1, 2, _ONE_PASS_MAX - 1, _ONE_PASS_MAX, _ONE_PASS_MAX + 1, 50000):
        params = ChannelParams(E=float(rng.uniform(0.5, 50.0)), eta=0.8,
                               Na=float(rng.uniform(0.0, 3.0)), theta=float(rng.uniform(0.0, np.pi)))
        psi, theta, cand = (float(v) for v in rng.uniform(0.0, np.pi, 3))
        abs_x = np.abs(sample_block(params, psi, n, seed=int(rng.integers(1 << 62))).x)
        sum_abs = float(abs_x.sum())
        s2, a = params.noise_var(), params.amplitude()
        m0, m1 = abs(a * math.cos(theta - psi)), abs(a * math.cos(cand - psi))
        soft = (float(np.log1p(np.exp(abs_x * (-2.0 * m1 / s2))).sum())
                - float(np.log1p(np.exp(abs_x * (-2.0 * m0 / s2))).sum()))
        plain = soft + (m1 - m0) * (2.0 * sum_abs - n * (m1 + m0)) / (2.0 * s2)
        assert reflection_margin(abs_x, sum_abs, params, psi, theta, cand) == plain, n


def test_em_config_validation():
    with pytest.raises(ValueError):
        EmConfig(eps=0.0)
    with pytest.raises(ValueError):
        EmConfig(l_max=0)
