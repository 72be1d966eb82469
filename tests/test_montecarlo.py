import logging
import math
from dataclasses import fields, replace
from itertools import combinations

import numpy as np
import pytest

import qisac.controller as controller
import qisac.montecarlo as mc
from qisac import (
    AlgoConfig,
    ChannelParams,
    ExperimentSpec,
    QisacError,
    ber_theory,
    fc_max,
    fisher_argmax,
    run_convergence_experiment,
    run_qisac,
    run_tradeoff_sweep,
    sample_block,
    score_ber,
    steady_window,
    trial_seed,
)
from qisac.analytics import pareto_known_theta
from qisac.montecarlo import SweepPoint, median, quantile, steady_mean, steady_psi


def _spec(params, trials=2, n_block=300, t_max=20, seed=42, **algo_kw):
    algo_kw.setdefault("gamma_min", 0.0)
    algo_kw.setdefault("lam", 0.1)
    algo_kw.setdefault("eps", 0.0)
    algo_kw.setdefault("psi0", math.radians(90.0))
    algo = AlgoConfig(t_max=t_max, **algo_kw)
    return ExperimentSpec(params=params, algo=algo, n_block=n_block,
                          trials=trials, seed=seed)


# ----------------------------------------------------------------- score_ber

def test_score_ber_counts_mismatches():
    e, flipped = score_ber(np.array([0, 1, 1, 0]), np.array([0, 1, 0, 0]))
    assert e == 0.25
    assert not flipped


def test_score_ber_resolves_label_ambiguity():
    s = np.array([0, 1, 0, 1])
    e, flipped = score_ber(1 - s, s)
    assert e == 0.0
    assert flipped


def test_score_ber_coinflip_midpoint():
    e, flipped = score_ber(np.array([0, 1]), np.array([0, 0]))
    assert e == 0.5
    assert not flipped


def test_score_ber_shape_mismatch():
    with pytest.raises(ValueError):
        score_ber(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        score_ber(np.zeros(0), np.zeros(0))


# ------------------------------------------------------------ steady helpers

def test_steady_window_tail_fraction():
    assert steady_window(10) == slice(8, 10)
    assert steady_window(500) == slice(400, 500)
    assert steady_window(1) == slice(0, 1)
    assert steady_window(3) == slice(2, 3)


def test_steady_mean_uses_tail_only():
    v = np.array([100.0] * 8 + [1.0, 3.0])
    assert steady_mean(v) == 2.0


@pytest.mark.parametrize("trials", [1, 2, 3, 8])
def test_median_and_quantile_reproduce_numpy(trials):
    rng = np.random.default_rng(trials)
    for scale in (1e-3, 1.0, 1e6):
        stack = scale * rng.standard_normal((trials, 37))
        stack[:, 0] = 0.25                     # ties
        assert np.array_equal(median(stack), np.median(stack, axis=0))
        for q in (0.0, 0.25, 0.5, 0.75, 1.0, 0.1):
            assert np.array_equal(quantile(stack, q), np.quantile(stack, q, axis=0)), q
        vals = list(stack[:, 1])
        assert float(median(vals)) == float(np.median(vals))


def test_steady_psi_is_circular():
    class FakeTrace:
        # the steady window is the last 20%: here the final two entries,
        # which straddle the wrap point; the arithmetic mean would sit near
        # a quarter turn, the circular mean stays next to the wrap
        psi = np.concatenate([np.full(8, 1.0), [0.02, np.pi - 0.03]])

        def __len__(self):
            return 10

    got = steady_psi(FakeTrace())
    assert np.isclose(got, np.pi - 0.005, atol=1e-4)


def test_steady_psi_constant_trace():
    class FakeTrace:
        psi = np.full(10, 1.234)

        def __len__(self):
            return 10

    assert np.isclose(steady_psi(FakeTrace()), 1.234, atol=1e-12)


# -------------------------------------------------------------- spec checks

def test_experiment_spec_validation(params_common):
    algo = AlgoConfig(gamma_min=0.0)
    with pytest.raises(ValueError):
        ExperimentSpec(params=params_common, algo=algo, n_block=0, trials=1, seed=0)
    with pytest.raises(ValueError):
        ExperimentSpec(params=params_common, algo=algo, n_block=10, trials=0, seed=0)
    with pytest.raises(ValueError):
        ExperimentSpec(params=params_common, algo=algo, n_block=10, trials=1,
                       seed=0, sweep=((1.5, 3.0, 100),))


# -------------------------------------------------------- convergence harness

def test_convergence_deterministic_rerun(params_common):
    spec = _spec(params_common)
    r1 = run_convergence_experiment(spec)
    r2 = run_convergence_experiment(spec)
    assert len(r1.traces) == len(r2.traces) == spec.trials
    for a, b in zip(r1.traces, r2.traces):
        assert np.array_equal(a.psi, b.psi)
        assert np.array_equal(a.theta_hat, b.theta_hat)
        assert np.array_equal(a.ber_emp, b.ber_emp)


def test_trial_trace_depends_only_on_its_index(params_common):
    # a trial run alone, with the trials visited in reverse order, gives the
    # trace it has inside the experiment: swapping trial order changes nothing.
    # The trial's seeds are derived in chunks as it advances; a reference run
    # that keys every block plainly as trial_seed(trial_seed(seed, i), t)
    # gives the same trace, also for trials that stop early (eps > 0) before
    # or after the end of the first chunk.
    spec = _spec(params_common, trials=4, t_max=300, lam=0.01, eps=0.02)
    res = run_convergence_experiment(spec)
    assert len(res.traces) == spec.trials
    lengths = [len(tr) for tr in res.traces]
    assert min(lengths) < mc._SEED_CHUNK < max(lengths) < spec.algo.t_max
    for i in reversed(range(spec.trials)):
        seed_t = trial_seed(spec.seed, i)

        def plain(psi, t):
            return sample_block(spec.params, psi, spec.n_block, trial_seed(seed_t, t))

        alone = mc._single_trial(spec, i)
        reference = run_qisac(plain, spec.params, spec.algo)
        for name in ("psi", "theta_hat", "ber_emp", "reflect_margin"):
            for other in (alone, reference):
                assert np.array_equal(getattr(res.traces[i], name), getattr(other, name),
                                      equal_nan=True), (i, name)


def test_convergence_trials_differ(params_common):
    spec = _spec(params_common, trials=3, t_max=10)
    res = run_convergence_experiment(spec)
    assert not np.array_equal(res.traces[0].ber_emp, res.traces[1].ber_emp)


def test_convergence_summary_structure(params_common):
    spec = _spec(params_common, trials=3, t_max=15)
    res = run_convergence_experiment(spec)
    t_common = min(len(tr) for tr in res.traces)
    for name in ("theta_hat", "psi", "fc", "ber_emp"):
        med = res.summary[f"{name}_median"]
        q25 = res.summary[f"{name}_q25"]
        q75 = res.summary[f"{name}_q75"]
        assert med.shape == (t_common,)
        assert np.all(q25 <= med + 1e-15)
        assert np.all(med <= q75 + 1e-15)
    assert np.array_equal(res.summary["iterations"], np.arange(t_common))
    assert res.failures == []


def test_convergence_collects_partial_failures(params_common, monkeypatch):
    real = mc._single_trial

    def flaky(spec, index):
        if index == 1:
            raise QisacError("forced")
        return real(spec, index)

    monkeypatch.setattr(mc, "_single_trial", flaky)
    spec = _spec(params_common, trials=3, t_max=5)
    res = run_convergence_experiment(spec)
    assert len(res.traces) == 2
    assert len(res.failures) == 1
    assert res.failures[0][0] == 1
    assert "QisacError" in res.failures[0][1]


def test_trial_failure_warning_names_index_and_seed(params_common, monkeypatch, caplog):
    # a failed trial is reproducible from its log line: index and derived
    # seed; the line begins with "trial " so failure counters can find it
    real = mc._single_trial

    def flaky(spec, index):
        if index == 1:
            raise QisacError("forced")
        return real(spec, index)

    monkeypatch.setattr(mc, "_single_trial", flaky)
    spec = _spec(params_common, trials=3, t_max=5)
    with caplog.at_level(logging.WARNING, logger="qisac.montecarlo"):
        run_convergence_experiment(spec)
    msgs = [r.getMessage() for r in caplog.records if r.name == "qisac.montecarlo"]
    assert msgs == [f"trial 1 (seed {trial_seed(spec.seed, 1)}) failed: QisacError: forced"]


def test_failed_trial_names_its_iteration(params_common, monkeypatch, caplog):
    # EM raises at outer iteration 3 of trial 1; with eps = 0 every trial
    # makes exactly t_max EM calls, so that is call t_max + 4 overall
    real = controller.run_em
    calls = [0]
    spec = _spec(params_common, trials=3, t_max=5)

    def failing(*args, **kwargs):
        calls[0] += 1
        if calls[0] == spec.algo.t_max + 4:
            raise QisacError("forced")
        return real(*args, **kwargs)

    monkeypatch.setattr(controller, "run_em", failing)
    with caplog.at_level(logging.WARNING, logger="qisac.montecarlo"):
        res = run_convergence_experiment(spec)
    msg = "QisacError: iteration 3: forced"
    assert res.failures == [(1, msg)]
    assert len(res.traces) == 2
    logged = [r.getMessage() for r in caplog.records if r.name == "qisac.montecarlo"]
    assert logged == [f"trial 1 (seed {trial_seed(spec.seed, 1)}) failed: {msg}"]


def test_convergence_all_failed_raises(params_common, monkeypatch):
    def broken(spec, index):
        raise QisacError("forced")

    monkeypatch.setattr(mc, "_single_trial", broken)
    spec = _spec(params_common, trials=2, t_max=5)
    with pytest.raises(QisacError):
        run_convergence_experiment(spec)


def test_convergence_unexpected_error_propagates(params_common, monkeypatch):
    def broken(spec, index):
        raise RuntimeError("logic bug")

    monkeypatch.setattr(mc, "_single_trial", broken)
    spec = _spec(params_common, trials=2, t_max=5)
    with pytest.raises(RuntimeError):
        run_convergence_experiment(spec)


def test_smaller_blocks_mean_noisier_constraint_tracking(params_common):
    # both runs dither at the feasibility boundary, but the run with half
    # the symbols per block has a noisier phase estimate, so its
    # steady-state block information fluctuates more; comparing the
    # information normalised by its achievable maximum makes the two block
    # sizes commensurable
    def tail_var(spec):
        res = run_convergence_experiment(spec)
        out = []
        for tr in res.traces:
            w = steady_window(len(tr))
            out.append(np.var(tr.fc[w] / tr.fc_max))
        return float(np.mean(out))

    coarse = _spec(
        ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=math.radians(60.0)),
        trials=3, n_block=500, t_max=400,
        gamma_min=0.5, gamma_relative=True, lam=0.01, seed=7)
    fine = _spec(
        ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=math.radians(45.0)),
        trials=3, n_block=1000, t_max=400,
        gamma_min=0.6, gamma_relative=True, lam=0.01, seed=7)
    assert tail_var(coarse) > 1.1 * tail_var(fine)


# ------------------------------------------------------------- sweep harness

def _largest_energy(n):
    """Largest E (to 1e-12) of a valid channel eta = 1, Na = 0 with fc_max(., n) finite."""
    def ok(e):
        try:
            return math.isfinite(fc_max(ChannelParams(E=e, eta=1.0, Na=0.0), n))
        except ValueError:
            return False

    lo, hi = 1.0, 1e308
    while hi - lo > 1e-12 * lo:
        mid = math.sqrt(lo) * math.sqrt(hi)
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


def test_sweep_constraints_never_exceed_the_frontier_maximum():
    # a sweep point's constraint is gamma_frac * fc_max with gamma_frac in
    # [0, 1], and fc_max is the N * max F that pareto_known_theta tests
    # against, so the frontier point exists for every entry ExperimentSpec
    # accepts: over ordinary channels and the edges of the valid range (the
    # smallest positive amplitude, the largest channel whose N * max F is
    # finite), at every gamma fraction down to the smallest subnormal
    fracs = (0.0, 5e-324, 0.5, math.nextafter(1.0, 0.0), 1.0)
    channels = [ChannelParams(E=e, eta=0.8, Na=na, theta=0.3)
                for e in (1e-3, 0.1, 1.0, 10.0, 1e3) for na in (0.0, 1.0, 3.0)]
    channels += [ChannelParams(E=1e-320, eta=1.0, Na=na) for na in (0.0, 3.0)]
    for n in (1, 1000, 50000):
        top = _largest_energy(n)
        for params in channels + [ChannelParams(E=top, eta=1.0, Na=0.0)]:
            peak = n * fisher_argmax(params)[1]
            spec = ExperimentSpec(params=params, algo=AlgoConfig(gamma_min=0.0), n_block=n,
                                  trials=1, seed=0, sweep=tuple((gf, params.Na, n) for gf in fracs))
            for gf, na, n_j in spec.sweep:
                gamma = gf * fc_max(replace(params, Na=na), n_j)
                assert gamma <= peak, (params, n, gf)
                assert pareto_known_theta(params, n, gamma).phi_star <= fisher_argmax(params)[0]
        # one step past it, the channel (N = 1) or the spec is rejected
        with pytest.raises(ValueError):
            ExperimentSpec(params=ChannelParams(E=top * (1 + 1e-9), eta=1.0, Na=0.0),
                           algo=AlgoConfig(gamma_min=0.0), n_block=n, trials=1, seed=0)


def test_sweep_requires_entries(params_common):
    spec = _spec(params_common)
    with pytest.raises(ValueError):
        run_tradeoff_sweep(spec)


def test_sweep_point_fields_and_theory(params_theta0):
    params = params_theta0
    # psi0 at a mid-range offset: starting at a quarter turn would put the
    # loop in the zero-information blind spot and waste the whole budget
    spec = ExperimentSpec(
        params=params,
        algo=AlgoConfig(gamma_min=0.0, lam=0.05, eps=0.0, t_max=150,
                        psi0=math.radians(45.0)),
        n_block=400,
        trials=3,
        seed=11,
        sweep=((0.0, 3.0, 400), (0.5, 3.0, 400)),
    )
    curve = run_tradeoff_sweep(spec)
    assert curve.trials == 3
    assert [p.gamma_frac for p in curve.points] == [0.0, 0.5]
    for p in curve.points:
        assert p.ber_stderr > 0.0
        assert 0.0 <= p.phi_star <= np.pi / 2
    # unconstrained point: simulated BER near its analytic floor
    p0 = curve.points[0]
    floor = ber_theory(params, params.theta)
    assert p0.ber_theory == pytest.approx(floor, rel=1e-12)
    assert abs(p0.ber_sim - floor) < 0.03
    # tighter constraint cannot improve the frontier
    assert curve.points[1].ber_theory >= p0.ber_theory


def _assert_same_trace(a, b, where):
    for f in fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert va.dtype == vb.dtype and va.tobytes() == vb.tobytes(), (where, f.name)
        else:
            assert va == vb, (where, f.name)


def _point_alone(spec, entry):
    """A sweep entry evaluated from its trials run one by one through _single_trial."""
    gamma_frac, na, n = entry
    params = replace(spec.params, Na=na)
    gamma = gamma_frac * mc.fc_max(params, n)
    ref = mc.pareto_known_theta(params, n, gamma)
    spec_j = replace(spec, params=params, n_block=n, sweep=None,
                     algo=replace(spec.algo, gamma_min=gamma, gamma_relative=False))
    traces = []
    for i in range(spec.trials):
        try:
            traces.append(mc._single_trial(spec_j, i))
        except QisacError:
            pass
    per_trial = np.array([steady_mean(tr.ber_emp, len(tr)) for tr in traces])
    stderr = float(per_trial.std(ddof=1) / np.sqrt(len(per_trial))) if len(per_trial) > 1 else 0.0
    point = SweepPoint(float(gamma_frac), float(na), int(n), float(per_trial.mean()), stderr,
                       ref.ber, ref.phi_star)
    return spec_j, point


def test_lockstep_sweep_matches_points_run_alone(params_common, monkeypatch, caplog):
    # sweep points of one trial advance in lockstep over shared block draws;
    # mixed block lengths and Na, points that stop at
    # different iterations (eps > 0) and a point whose EM fails in one trial
    # must each give the SweepPoint and traces of the point run alone
    sweep = ((0.0, 3.0, 160), (0.6, 3.0, 160), (0.0, 1.0, 160),
             (0.0, 3.0, 240), (0.9, 3.0, 240), (0.3, 1.0, 240))
    spec = ExperimentSpec(
        params=params_common,
        algo=AlgoConfig(gamma_min=0.0, lam=0.1, eps=0.05, t_max=60, psi0=math.radians(70.0)),
        n_block=100, trials=3, seed=31, sweep=sweep)
    fail_at, fail_trial, fail_point = 4, 1, 5
    fail_key = trial_seed(trial_seed(spec.seed, fail_trial), fail_at)
    real_em = controller.run_em

    def em(block, params, psi, cfg):
        if block.seed == fail_key and params.Na == 1.0 and block.n == 240:
            raise QisacError("forced")
        return real_em(block, params, psi, cfg)

    monkeypatch.setattr(controller, "run_em", em)
    with caplog.at_level(logging.WARNING, logger="qisac.montecarlo"):
        curve = run_tradeoff_sweep(spec)
    logged = [r.getMessage() for r in caplog.records if r.name == "qisac.montecarlo"]
    msg = f"QisacError: iteration {fail_at}: forced"
    seed_1 = trial_seed(spec.seed, fail_trial)
    assert logged == [f"trial {fail_trial} (seed {seed_1}) failed: {msg}"]

    for j in range(len(sweep)):
        assert curve.points[j] == _point_alone(spec, sweep[j])[1], j
    lengths = set()
    for n, group in ((160, (0, 1, 2)), (240, (3, 4, 5))):
        specs = [_point_alone(spec, sweep[j])[0] for j in group]
        for i in range(spec.trials):
            done = dict(mc._lockstep(specs, i))
            assert sorted(done) == list(range(len(specs)))
            for k, spec_k in enumerate(specs):
                out = done[k]
                if isinstance(out, QisacError):
                    assert (i, group[k]) == (fail_trial, fail_point)
                    assert out.iteration == fail_at
                    with pytest.raises(QisacError, match="forced"):
                        mc._single_trial(spec_k, i)
                    continue
                _assert_same_trace(out, mc._single_trial(spec_k, i), (n, i, k))
                lengths.add(len(out))
    # eps > 0: the points stopped at different iterations, some before t_max
    assert len(lengths) > 2 and spec.algo.t_max in lengths


def test_lockstep_draws_each_block_once_and_shares_read_only_symbols(params_common,
                                                                      monkeypatch):
    # two points of one block length: one draw per outer iteration, one
    # composed block per point per iteration, and a block's symbols (shared
    # with its sibling) cannot be written.  The draw and x live in buffers
    # the group reuses, so each block's x is read as it is composed
    draws, blocks, xs = [], [], []
    real_draw, real_sample = mc.draw_block, mc.sample_block

    def draw(n, seed, **kw):
        draws.append(seed.key)
        return real_draw(n, seed, **kw)

    def sample(params, psi, n, seed, **kw):
        blocks.append(real_sample(params, psi, n, seed, **kw))
        xs.append(blocks[-1].x.tobytes())
        with pytest.raises(ValueError):
            blocks[-1].s_true[0] ^= 1
        return blocks[-1]

    monkeypatch.setattr(mc, "draw_block", draw)
    monkeypatch.setattr(mc, "sample_block", sample)
    spec = _spec(params_common, trials=1, t_max=5)
    spec = replace(spec, sweep=((0.1, 3.0, 300), (0.7, 1.0, 300)))
    curve = run_tradeoff_sweep(spec)
    seed_0 = trial_seed(spec.seed, 0)
    assert draws == [trial_seed(seed_0, t) for t in range(5)]
    assert len(blocks) == 10
    for t in range(5):
        a, b = blocks[2 * t], blocks[2 * t + 1]
        assert a.s_true is b.s_true
        assert xs[2 * t] != xs[2 * t + 1]


def test_sweep_with_block_refresh_off_matches_points_run_alone(params_common):
    # a loop with block_refresh off holds its one block for the whole run,
    # so it must not sit in the buffers its group rewrites every iteration
    spec = replace(_spec(params_common, trials=2, t_max=12, block_refresh=False),
                   sweep=((0.2, 3.0, 250), (0.8, 1.0, 250)))
    curve = run_tradeoff_sweep(spec)
    specs = []
    for j, entry in enumerate(spec.sweep):
        spec_j, point = _point_alone(spec, entry)
        assert curve.points[j] == point, j
        specs.append(spec_j)
    for i in range(spec.trials):
        done = dict(mc._lockstep(specs, i))
        for k, spec_k in enumerate(specs):
            _assert_same_trace(done[k], mc._single_trial(spec_k, i), (i, k))


def _cohort_specs(spec, fracs):
    """One spec per gamma fraction of ``spec``'s channel, as run_tradeoff_sweep makes them."""
    gammas = [f * fc_max(spec.params, spec.n_block) for f in fracs]
    return [replace(spec, algo=replace(spec.algo, gamma_min=g)) for g in gammas]


def _parted_at(a, b):
    """The first iteration whose target differs between two traces, or None."""
    return next((t for t, (x, y) in enumerate(zip(a.target, b.target)) if x != y), None)


@pytest.mark.parametrize("refresh", [True, False])
def test_cohort_members_match_points_run_alone(refresh):
    # one Na, so the five points start as one cohort; they part at
    # different iterations (0.4 and 0.45 never do while each block is
    # fresh), and with eps > 0 some stop early, also together.  The specs
    # come in descending gamma; every member's trace is the point's own
    params = ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=0.3)
    spec = _spec(params, trials=3, t_max=40, lam=0.2, eps=0.05, seed=31, block_refresh=refresh)
    specs = _cohort_specs(spec, (0.8, 0.45, 0.4, 0.005, 0.0))
    parts, lengths = set(), set()
    for i in range(spec.trials):
        done = dict(mc._lockstep(specs, i))
        alone = [mc._single_trial(sp, i) for sp in specs]
        for k, tr in enumerate(alone):
            _assert_same_trace(done[k], tr, (i, k))
            lengths.add(len(tr))
            parts.update(_parted_at(tr, other) for other in alone[k + 1:])
    assert len(parts - {None}) > 1 and (None in parts or not refresh)
    assert len(lengths) > 1 and min(lengths) < spec.algo.t_max


def test_failure_in_a_shared_prefix_fails_every_member(params_common, monkeypatch, caplog):
    # the points of this sweep share their loop state for all 20 iterations,
    # so EM runs once on the block of trial 1, iteration 4, and its failure
    # is every point's, logged once per point
    spec = replace(_spec(params_common, trials=3, lam=0.01, t_max=20),
                   sweep=tuple((f, 3.0, 300) for f in (0.1, 0.2, 0.3)))
    fail_key = trial_seed(trial_seed(spec.seed, 1), 4)
    real_em, failed = controller.run_em, []

    def em(block, params, psi, cfg):
        if block.seed == fail_key:
            failed.append(psi)
            raise QisacError("forced")
        return real_em(block, params, psi, cfg)

    monkeypatch.setattr(controller, "run_em", em)
    specs = _cohort_specs(spec, (0.1, 0.2, 0.3))
    for i in range(spec.trials):
        done = dict(mc._lockstep(specs, i))
        assert sorted(done) == [0, 1, 2]
        for k, out in done.items():
            if i == 1:
                assert isinstance(out, QisacError) and out.iteration == 4, k
            else:
                _assert_same_trace(out, mc._single_trial(specs[k], i), (i, k))
    assert len(failed) == 1
    with caplog.at_level(logging.WARNING, logger="qisac.montecarlo"):
        curve = run_tradeoff_sweep(spec)
    assert [p.ber_sim for p in curve.points] == [
        _point_alone(spec, entry)[1].ber_sim for entry in spec.sweep]
    seed_1 = trial_seed(spec.seed, 1)
    logged = [r.getMessage() for r in caplog.records if r.name == "qisac.montecarlo"]
    assert logged == [f"trial 1 (seed {seed_1}) failed: QisacError: iteration 4: forced"] * 3


def test_cohort_runs_em_once_per_distinct_loop_state(params_common, monkeypatch):
    # the loop state at iteration t is set by the targets of iterations
    # before t, so EM runs once per distinct target history among the points
    # still running; points that never part cost t_max EM runs per trial
    # whatever their number.  A cohort that parts steps from the next
    # round, so each block is still drawn once
    calls, draws = [0], []
    real_em, real_draw = controller.run_em, mc.draw_block

    def em(*args):
        calls[0] += 1
        return real_em(*args)

    def draw(n, seed, **kw):
        draws.append(seed.key)
        return real_draw(n, seed, **kw)

    monkeypatch.setattr(controller, "run_em", em)
    monkeypatch.setattr(mc, "draw_block", draw)
    together = _spec(params_common, trials=2, lam=0.01, t_max=20)
    for fracs in ((0.1,), (0.1, 0.2), (0.1, 0.2, 0.3)):
        calls[0] = 0
        for i in range(together.trials):
            list(mc._lockstep(_cohort_specs(together, fracs), i))
        assert calls[0] == together.trials * together.algo.t_max, fracs

    apart = _spec(ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=0.3), trials=3, t_max=40,
                  lam=0.2, eps=0.05, seed=31)
    specs = _cohort_specs(apart, (0.0, 0.005, 0.4, 0.45, 0.8))
    for i in range(apart.trials):
        alone = [mc._single_trial(sp, i) for sp in specs]
        states = sum(len({tuple(tr.target[:t]) for tr in alone if len(tr) > t})
                     for t in range(apart.algo.t_max))
        calls[0], draws[:] = 0, []
        list(mc._lockstep(specs, i))
        assert calls[0] == states < len(specs) * max(map(len, alone)), i
        seed_i = trial_seed(apart.seed, i)
        assert draws == [trial_seed(seed_i, t) for t in range(max(map(len, alone)))], i


def test_traces_share_no_memory_with_the_lockstep_buffers(params_common, monkeypatch):
    # the group's draw and x buffers are rewritten by later iterations,
    # trials and points; nothing a trace keeps may live in them, and
    # siblings keep no array in common
    buffers = []
    real_draw, real_sample = mc.draw_block, mc.sample_block

    def draw(n, seed, out=None):
        buffers.extend(out)
        return real_draw(n, seed, out=out)

    def sample(params, psi, n, seed, out=None):
        buffers.append(out)
        return real_sample(params, psi, n, seed, out=out)

    monkeypatch.setattr(mc, "draw_block", draw)
    monkeypatch.setattr(mc, "sample_block", sample)
    spec = _spec(params_common, trials=3, n_block=200, t_max=6)
    group = [replace(spec, params=replace(spec.params, Na=na)) for na in (3.0, 1.0)]
    # one cohort: the first two never part and end together, the third
    # parts from them at iteration 0, which is the last one in ``last``
    cohort = [replace(spec, algo=replace(spec.algo, gamma_min=g)) for g in (0.0, 0.0, 1e9)]
    last = [replace(sp, algo=replace(sp.algo, t_max=1)) for sp in cohort]
    kept = []   # (trace, bytes of s_hat_final as it ended)
    for i in range(spec.trials):
        for specs in (group, group[:1], cohort, last):
            siblings = [tr for _, tr in mc._lockstep(specs, i)]
            kept.extend((tr, tr.s_hat_final.tobytes()) for tr in siblings)
            for a, b in combinations(siblings, 2):
                assert a.target is not b.target
                for name in ("s_hat_final", "theta_hat", "psi", "fc", "ber_emp", "reflect_margin"):
                    assert not np.shares_memory(getattr(a, name), getattr(b, name)), name
    assert buffers and all(b is not None for b in buffers)
    assert len(kept) == 9 * spec.trials
    for tr, final in kept:
        assert tr.s_hat_final.tobytes() == final
        for arr in (tr.s_hat_final, tr.theta_hat, tr.psi, tr.fc, tr.ber_emp):
            assert not any(np.shares_memory(arr, b) for b in buffers)


def test_caller_block_source_arrays_are_never_written(params_common):
    # ObservationBlock is public: a caller's blocks are read, never reused
    # as scratch, whether refreshed each iteration or reused throughout
    for refresh in (True, False):
        blocks, copies = [], []

        def source(psi, t):
            blk = sample_block(params_common, psi, 300, seed=900 + t)
            blk.x.flags.writeable = False
            blk.s_true.flags.writeable = False
            blocks.append(blk)
            copies.append((blk.x.tobytes(), blk.s_true.tobytes()))
            return blk

        cfg = AlgoConfig(gamma_min=0.0, lam=0.1, eps=0.0, t_max=8, psi0=0.7,
                         block_refresh=refresh)
        trace = run_qisac(source, params_common, cfg)
        assert len(trace) == 8 and len(blocks) == (8 if refresh else 1)
        for blk, (x, s) in zip(blocks, copies):
            assert (blk.x.tobytes(), blk.s_true.tobytes()) == (x, s)


def test_sweep_point_whose_trials_all_fail_raises(params_common, monkeypatch):
    # its sibling of the same block length runs to the end in the same
    # lockstep; the error names the point and its first failure
    real_em = controller.run_em

    def em(block, params, psi, cfg):
        if params.Na == 1.0:
            raise QisacError("forced")
        return real_em(block, params, psi, cfg)

    monkeypatch.setattr(controller, "run_em", em)
    spec = replace(_spec(params_common, trials=2, t_max=4),
                   sweep=((0.1, 3.0, 200), (0.4, 1.0, 200)))
    with pytest.raises(QisacError, match=r"gamma_frac=0\.4, Na=1\.0, N=200: "
                                         r"QisacError: iteration 0: forced"):
        run_tradeoff_sweep(spec)
