import math
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

import qisac.controller as controller
from qisac import (
    AlgoConfig,
    ChannelParams,
    EmConfig,
    ber_theory,
    fc_max,
    fisher_symbol,
    run_qisac,
    sample_block,
    select_target,
    trial_seed,
    update_psi,
    wrap_pi,
)


def _source(params, base=9000):
    def src(psi, t):
        return sample_block(params, psi, 400, seed=base + t)

    return src


def _fold(d):
    """|d| reduced mod pi to [0, pi/2], elementwise."""
    d = np.abs(d) % np.pi
    return np.minimum(d, np.pi - d)


# ------------------------------------------------------------------- wrap_pi

def test_wrap_pi_identity_inside_band():
    for v in (0.0, 0.3, -0.3, 1.5, -1.5):
        assert wrap_pi(v) == v


def test_wrap_pi_shift_by_pi():
    assert np.isclose(wrap_pi(np.pi + 0.2), 0.2, atol=1e-12)
    assert np.isclose(wrap_pi(-np.pi - 0.2), -0.2, atol=1e-12)


def test_wrap_pi_half_turn_ties_resolve_away_from_zero():
    # pi/2 / pi == 0.5 exactly in binary, so the tie-break is exercised
    # without rounding noise: half-integers round away from zero.
    assert wrap_pi(np.pi / 2) == -np.pi / 2
    assert wrap_pi(-np.pi / 2) == np.pi / 2


def test_wrap_pi_range_and_array():
    v = np.linspace(-20.0, 20.0, 4001)
    w = wrap_pi(v)
    assert np.all(w > -np.pi / 2 - 1e-12)
    assert np.all(w <= np.pi / 2 + 1e-12)
    assert np.allclose(np.cos(2 * v), np.cos(2 * w), atol=1e-9)


def test_wrap_pi_scalar_path_matches_array_path_bit_for_bit():
    # a float takes the math path; it must return the bits of the array path,
    # signed zeros, half-turn ties and their one-ulp neighbours included
    ties = [k * math.pi / 2 for k in range(-8, 9)]
    values = [0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308,
              -1e-310, 1.7976931348623157e308]
    values += ties + [math.nextafter(v, d) for v in ties for d in (-math.inf, math.inf)]
    values += np.random.default_rng(3).uniform(-50.0, 50.0, 10_000).tolist()
    scalar = np.array([wrap_pi(v) for v in values])
    assert all(type(wrap_pi(v)) is float for v in values[:20])
    assert scalar.tobytes() == wrap_pi(np.array(values)).tobytes()
    # non-finite input keeps its result: NaN, with numpy's warning for +-inf
    assert math.isnan(wrap_pi(math.nan))
    for v in (math.inf, -math.inf):
        with pytest.warns(RuntimeWarning):
            assert math.isnan(wrap_pi(v))


# ------------------------------------------------------------- target select

def test_select_target_feasible_tracks_estimate():
    kind, tar = select_target(1.2, gamma_min=1.0, theta_hat=0.3)
    assert kind == "com"
    assert tar == 0.3


def test_select_target_infeasible_goes_quarter_turn():
    kind, tar = select_target(0.8, gamma_min=1.0, theta_hat=0.3)
    assert kind == "sen"
    assert np.isclose(tar, 0.3 + np.pi / 2)


def test_select_target_wraps_into_half_turn_band():
    _, tar = select_target(0.0, 1.0, theta_hat=2.9)
    assert 0.0 <= tar < np.pi


def test_update_psi_partial_step():
    psi = update_psi(0.2, 0.6, lam=0.25)
    assert np.isclose(psi, 0.3, atol=1e-12)
    assert 0.0 <= psi < np.pi


def test_update_psi_takes_short_way_around():
    # target just below pi, state just above zero: the short path is negative
    psi = update_psi(0.05, np.pi - 0.05, lam=0.5)
    assert np.isclose(psi, (0.05 - 0.05) % np.pi, atol=1e-12)


# ----------------------------------------------------------------- main loop

@pytest.mark.parametrize("base", [9000 + 100000 * k for k in range(24)])
def test_run_qisac_unconstrained_converges_to_com(params_common, base):
    # With no sensing constraint the loop heads for the zero-offset point.
    # The phase information vanishes there (the estimate is ill-conditioned
    # exactly at the target), so the LO phase orbits the true phase in a
    # shallow basin rather than pinning it; the error-rate optimum is flat,
    # which is the guarantee worth asserting.  eps=0 so a single degenerate
    # zero-offset fit cannot end the descent early.  The LO barely moves
    # near the target, so every block seed must keep the physical side.
    from qisac.montecarlo import steady_mean, steady_psi

    cfg = AlgoConfig(gamma_min=0.0, lam=0.02, eps=0.0, t_max=400,
                     psi0=math.radians(90.0))
    trace = run_qisac(_source(params_common, base), params_common, cfg)
    assert all(kind == "com" for kind in trace.target)
    assert _fold(steady_psi(trace) - params_common.theta) < math.radians(15.0)
    steady_rate = steady_mean(trace.ber_theory, len(trace))
    assert steady_rate - ber_theory(params_common, params_common.theta) < 0.005


def test_run_qisac_recovers_from_mirrored_start(params_common):
    # One block fixes the phase only up to reflection about the LO phase,
    # so force the first estimate onto the reflected side and check that
    # the anchor block's evidence flips the loop back onto the physical
    # phase.
    from qisac.montecarlo import steady_psi

    mirror0 = float(2.0 * math.radians(90.0) - params_common.theta)
    cfg = AlgoConfig(
        gamma_min=0.6, gamma_relative=True, lam=0.02, eps=0.0, t_max=300,
        psi0=math.radians(90.0),
        em=EmConfig(init_theta=mirror0),
    )
    trace = run_qisac(_source(params_common), params_common, cfg)
    # first estimate sits on the mirror; the steady state must not
    e0 = abs(trace.theta_hat[0] - mirror0) % np.pi
    assert min(e0, np.pi - e0) < math.radians(5.0)
    tail = trace.theta_hat[-60:]
    d = np.abs(tail - params_common.theta) % np.pi
    assert np.median(np.minimum(d, np.pi - d)) < math.radians(3.0)
    # and the LO phase dithers on the physical side of the constraint
    d_psi = abs(steady_psi(trace) - math.radians(82.5)) % np.pi
    assert min(d_psi, np.pi - d_psi) < math.radians(4.0)


def test_run_qisac_records_reflection_decisions(params_common):
    # from the mirrored start the anchor must adopt the reflection at least
    # once; every adoption is a margin above the evidence threshold, and
    # iteration 0, with no anchor yet, scores nothing
    mirror0 = float(2.0 * math.radians(90.0) - params_common.theta)
    cfg = AlgoConfig(gamma_min=0.6, gamma_relative=True, lam=0.02, eps=0.0, t_max=120,
                     psi0=math.radians(90.0), em=EmConfig(init_theta=mirror0))
    trace = run_qisac(_source(params_common), params_common, cfg)
    margin, adopted = trace.reflect_margin, trace.reflection_adopted
    assert margin.shape == adopted.shape == (len(trace),)
    assert adopted.dtype == bool
    assert np.isnan(margin[0]) and np.isfinite(margin[1:]).mean() > 0.9
    assert np.array_equal(adopted, margin > controller._FLIP_EVIDENCE)
    assert adopted.sum() >= 1
    # a reused block is its own anchor: nothing is scored
    trace = run_qisac(_source(params_common), params_common,
                      replace(cfg, block_refresh=False, t_max=5))
    assert np.isnan(trace.reflect_margin).all() and not trace.reflection_adopted.any()


def test_run_qisac_keeps_physical_side_in_long_runs():
    # Criterion 7's low-demand geometry run well past its horizon: the LO
    # dithers at the constraint and moves little from block to block, so
    # the side evidence must come from a block held at a distant LO phase.
    # After the approach, at most 2% of the estimates may sit off the
    # physical phase (on its mirror) by more than 5 degrees.
    params = ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=math.radians(30.0))
    cfg = AlgoConfig(gamma_min=0.1, gamma_relative=True, lam=0.015, eps=0.0,
                     t_max=1000, psi0=math.radians(90.0))
    for s in range(8):
        def src(psi, t, s=s):
            return sample_block(params, psi, 5000, seed=trial_seed(700 + s, t))

        trace = run_qisac(src, params, cfg)
        off = _fold(trace.theta_hat[200:] - params.theta) > math.radians(5.0)
        assert off.mean() <= 0.02, f"run {s}: {off.mean():.1%} of estimates off the phase"


def test_run_qisac_max_constraint_forces_sensing(params_common):
    fcm = fc_max(params_common, 400)
    cfg = AlgoConfig(gamma_min=0.999 * fcm, lam=0.05, t_max=150,
                     psi0=math.radians(90.0))
    trace = run_qisac(_source(params_common), params_common, cfg)
    assert "sen" in trace.target
    # the demand is almost never met, so the loop keeps stepping toward the
    # sensing target a quarter turn from the estimate, which drives the
    # error rate toward coin-flipping.  That target is not the information
    # peak (59.8 deg from theta on this channel): the quarter turn itself
    # carries zero information
    assert trace.ber_theory[-1] > 0.3


def test_run_qisac_relative_constraint(params_common):
    cfg = AlgoConfig(gamma_min=0.6, gamma_relative=True, lam=0.05, t_max=100,
                     psi0=math.radians(90.0))
    trace = run_qisac(_source(params_common), params_common, cfg)
    assert np.isclose(trace.gamma_min, 0.6 * trace.fc_max, rtol=1e-12)


def test_run_qisac_trace_shapes_and_theory_column(params_common):
    cfg = AlgoConfig(gamma_min=0.0, lam=0.1, t_max=12, eps=0.0,
                     psi0=math.radians(40.0))
    trace = run_qisac(_source(params_common), params_common, cfg)
    n = len(trace)
    assert n == 12
    for arr in (trace.theta_hat, trace.psi, trace.fc, trace.ber_emp,
                trace.ber_theory, trace.flipped):
        assert len(arr) == n
    assert len(trace.target) == n
    # theory column is exactly the analytic rate at the true phase, and the
    # information column is exactly the block information at the estimate
    for t in range(n):
        assert trace.ber_theory[t] == ber_theory(params_common, trace.psi[t])
        at_estimate = replace(params_common, theta=float(trace.theta_hat[t]))
        assert trace.fc[t] == fisher_symbol(at_estimate, trace.psi[t], n=400).block
    assert trace.s_hat_final.shape == (400,)
    assert 0.0 <= trace.psi_final < np.pi


def test_run_qisac_stops_when_step_is_small(params_common):
    # frozen block: the phase estimate is fixed, so the LO step shrinks
    # geometrically and the loop must exit long before the iteration cap
    cfg = AlgoConfig(gamma_min=0.0, lam=0.5, eps=1e-3, t_max=500,
                     block_refresh=False,
                     psi0=float(params_common.theta + 0.02))
    trace = run_qisac(_source(params_common), params_common, cfg)
    assert len(trace) < 50


def test_run_qisac_block_refresh_flag(params_common):
    calls = []

    def src(psi, t):
        calls.append(t)
        return sample_block(params_common, psi, 400, seed=1)

    cfg = AlgoConfig(gamma_min=0.0, lam=0.1, eps=0.0, t_max=6,
                     block_refresh=False, psi0=0.5)
    run_qisac(src, params_common, cfg)
    assert calls == [0]

    calls.clear()
    cfg = replace(cfg, block_refresh=True)
    run_qisac(src, params_common, cfg)
    assert calls == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("refresh", [True, False])
def test_suspended_loop_holds_no_block_or_decisions(params_common, monkeypatch, refresh):
    # between outer iterations the loop keeps only the anchor's |x|: every
    # block is gone (but the one reused block when block_refresh is off), and
    # so is every s_hat but the last, which becomes s_hat_final
    blocks, decisions = [], []
    real_em = controller.run_em

    def source(psi, t):
        blk = sample_block(params_common, psi, 300, seed=600 + t)
        blocks.append(weakref.ref(blk))
        return blk

    def em(*args, **kwargs):
        res = real_em(*args, **kwargs)
        decisions.append(weakref.ref(res.s_hat))
        return res

    monkeypatch.setattr(controller, "run_em", em)
    cfg = AlgoConfig(gamma_min=0.0, lam=0.1, eps=0.0, t_max=6, psi0=0.5, block_refresh=refresh)
    steps = controller.qisac_steps(source, params_common, cfg)
    for t in range(cfg.t_max - 1):
        # each step returns nothing and keeps no reference to its decisions
        got = next(steps)
        assert got is None and len(decisions) == t + 1
        assert sum(r() is not None for r in blocks) == (0 if refresh else 1)
        assert all(r() is None for r in decisions)
    with pytest.raises(StopIteration) as stop:
        next(steps)
    trace = stop.value.value
    assert decisions[-1]() is trace.s_hat_final
    assert len(blocks) == (cfg.t_max if refresh else 1)

    monkeypatch.setattr(controller, "run_em", real_em)
    ref = run_qisac(source, params_common, cfg)
    for f in fields(trace):
        a, b = getattr(trace, f.name), getattr(ref, f.name)
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes() and a.dtype == b.dtype, f.name
        else:
            assert a == b, f.name


def test_callers_hold_no_decisions_between_steps(params_common, monkeypatch):
    # run_qisac and the lockstep harness drop each step's s_hat as soon as
    # the step returns it: when EM starts on the next block, every earlier
    # s_hat is gone
    import qisac.montecarlo as mc

    decisions = []
    real_em = controller.run_em

    def em(*args, **kwargs):
        assert all(r() is None for r in decisions)
        res = real_em(*args, **kwargs)
        decisions.append(weakref.ref(res.s_hat))
        return res

    monkeypatch.setattr(controller, "run_em", em)
    cfg = AlgoConfig(gamma_min=0.0, lam=0.1, eps=0.0, t_max=6, psi0=0.5)
    run_qisac(lambda psi, t: sample_block(params_common, psi, 300, seed=700 + t),
              params_common, cfg)
    assert len(decisions) == 6
    decisions.clear()
    spec = mc.ExperimentSpec(params=params_common, algo=cfg, n_block=300, trials=1, seed=5)
    mc._single_trial(spec, 0)
    assert len(decisions) == 6


def test_run_qisac_flip_indicator_consistency(params_common):
    cfg = AlgoConfig(gamma_min=0.0, lam=0.1, eps=0.0, t_max=10, psi0=1.2)
    trace = run_qisac(_source(params_common), params_common, cfg)
    assert trace.flipped.dtype == bool
    assert np.all(trace.ber_emp <= 0.5 + 1e-12)


def test_algo_config_validation():
    with pytest.raises(ValueError):
        AlgoConfig(gamma_min=-1.0)
    with pytest.raises(ValueError):
        AlgoConfig(gamma_min=0.0, lam=0.0)
    with pytest.raises(ValueError):
        AlgoConfig(gamma_min=0.0, lam=1.5)
    with pytest.raises(ValueError):
        AlgoConfig(gamma_min=1.2, gamma_relative=True)
    with pytest.raises(ValueError):
        AlgoConfig(gamma_min=0.0, t_max=0)
    with pytest.raises(ValueError):
        AlgoConfig(gamma_min=0.0, eps=-1e-3)
    with pytest.raises(ValueError):
        AlgoConfig(gamma_min=0.0, psi0=float("nan"))
    for gamma in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gamma_min"):
            AlgoConfig(gamma_min=gamma)
