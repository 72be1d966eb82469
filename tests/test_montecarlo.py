import logging
import math

import numpy as np
import pytest

import qisac.montecarlo as mc
from qisac import (
    AlgoConfig,
    ChannelParams,
    ExperimentSpec,
    InfeasibleError,
    QisacError,
    ber_theory,
    run_convergence_experiment,
    run_tradeoff_sweep,
    score_ber,
    steady_window,
    trial_seed,
)
from qisac.montecarlo import median, quantile, steady_mean, steady_psi


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


def test_convergence_thread_count_is_invisible(params_common):
    spec = _spec(params_common, trials=4, t_max=10)
    r1 = run_convergence_experiment(spec, threads=1)
    r4 = run_convergence_experiment(spec, threads=4)
    for a, b in zip(r1.traces, r4.traces):
        assert np.array_equal(a.psi, b.psi)
        assert np.array_equal(a.ber_emp, b.ber_emp)


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
        res = run_convergence_experiment(spec, threads=3)
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
    curve = run_tradeoff_sweep(spec, threads=3)
    assert curve.trials == 3
    assert [p.gamma_frac for p in curve.points] == [0.0, 0.5]
    for p in curve.points:
        assert p.feasible
        assert p.ber_stderr > 0.0
        assert 0.0 <= p.phi_star <= np.pi / 2
    # unconstrained point: simulated BER near its analytic floor
    p0 = curve.points[0]
    floor = ber_theory(params, params.theta)
    assert p0.ber_theory == pytest.approx(floor, rel=1e-12)
    assert abs(p0.ber_sim - floor) < 0.03
    # tighter constraint cannot improve the frontier
    assert curve.points[1].ber_theory >= p0.ber_theory


def test_sweep_marks_infeasible_points(params_common, monkeypatch):
    def always_infeasible(params, n, gamma_min, **kw):
        raise InfeasibleError("constraint exceeds the achievable maximum")

    monkeypatch.setattr(mc, "pareto_known_theta", always_infeasible)
    spec = ExperimentSpec(
        params=params_common,
        algo=AlgoConfig(gamma_min=0.0, lam=0.1, t_max=5),
        n_block=100,
        trials=1,
        seed=0,
        sweep=((0.9, 3.0, 100),),
    )
    curve = run_tradeoff_sweep(spec)
    assert len(curve.points) == 1
    p = curve.points[0]
    assert not p.feasible
    assert math.isnan(p.ber_sim) and math.isnan(p.ber_theory)
