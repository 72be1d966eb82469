import json
import math
import subprocess
import sys

import pytest

import qisac.cli as cli
from qisac import ConfigError, q_function
from qisac.cli import main, parse_config


def _base_doc(**overrides):
    doc = {
        "channel": {"E": 10.0, "eta": 0.8, "Na": 3.0, "theta_deg": 45.0},
        "algo": {"gamma_frac": 0.6, "lambda": 0.05, "eps": 1e-3,
                 "t_max": 25, "psi0_deg": 90.0},
        "experiment": {"n_block": 200, "trials": 2, "seed": 5},
    }
    doc.update(overrides)
    return doc


def _write_doc(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# -------------------------------------------------------------- config layer

def test_parse_config_roundtrips_through_echo():
    doc = _base_doc()
    spec1, echo, had_seed = parse_config(doc, "run")
    assert had_seed
    spec2, echo2, _ = parse_config(echo, "run")
    assert spec1 == spec2
    assert echo == echo2


def test_parse_config_fills_defaults():
    doc = _base_doc()
    del doc["experiment"]["trials"]
    doc["algo"] = {"gamma_frac": 0.6}
    spec, echo, had_seed = parse_config(doc, "run")
    assert spec.trials == 50
    assert spec.algo.lam == 0.01
    assert spec.algo.t_max == 500
    assert spec.algo.em.l_max == 500
    assert echo["algo"]["psi0_deg"] == 0.0
    assert spec.algo.gamma_relative


def test_parse_config_gamma_abs_is_not_relative():
    doc = _base_doc()
    doc["algo"] = {"gamma_abs": 123.0}
    spec, echo, _ = parse_config(doc, "run")
    assert not spec.algo.gamma_relative
    assert spec.algo.gamma_min == 123.0
    assert "gamma_abs" in echo["algo"]


def test_parse_config_shared_eps_reaches_em():
    doc = _base_doc()
    doc["algo"]["eps"] = 5e-4
    spec, _, _ = parse_config(doc, "run")
    assert spec.algo.eps == 5e-4
    assert spec.algo.em.eps == 5e-4
    assert spec.algo.em.newton_tol == 5e-4


def test_parse_config_zero_eps_disables_outer_stop_only():
    # eps: 0 means "always run t_max iterations"; the inner EM/Newton
    # tolerances cannot be zero, so they fall back to the default
    doc = _base_doc()
    doc["algo"]["eps"] = 0.0
    spec, echo, _ = parse_config(doc, "run")
    assert spec.algo.eps == 0.0
    assert spec.algo.em.eps == 1e-3
    assert spec.algo.em.newton_tol == 1e-3
    assert echo["algo"]["eps"] == 0.0  # echo keeps the author's intent


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("channel"),
    lambda d: d["channel"].pop("E"),
    lambda d: d.update(bogus={}),
    lambda d: d["algo"].update(gamma_abs=1.0),        # both gammas
    lambda d: d["algo"].pop("gamma_frac"),            # neither gamma
    lambda d: d["algo"].update(nonsense=1),
    lambda d: d["channel"].update(E=-1.0),
    lambda d: d["experiment"].update(n_block=0),
    lambda d: d.update(sweep=[]),
    lambda d: d.update(sweep=[[0.2, 3.0, 0]]),          # N = 0
    lambda d: d.update(sweep=[[0.2, -1.0, 150]]),       # Na < 0
    lambda d: d.update(sweep=[[0.2, 3.0, 150.5]]),      # fractional N
    lambda d: d["experiment"].update(trials=2.5),
    lambda d: d["experiment"].update(n_block=200.5),
    lambda d: d["experiment"].update(seed=5.5),
    lambda d: d["algo"].update(t_max=2.7),
    lambda d: d["algo"].update(l_max=10.5),
    lambda d: d["algo"].update(newton_max="100"),
    lambda d: d["algo"].update(t_max=True),
    lambda d: d["algo"].update(block_refresh="false"),
    lambda d: d["algo"].update(block_refresh=0),
    lambda d: d["channel"].update(Na=float("nan")),
])
def test_parse_config_rejects_malformed(mutate):
    doc = _base_doc()
    mutate(doc)
    with pytest.raises(ConfigError):
        parse_config(doc, "run")


def test_parse_config_accepts_integral_floats():
    doc = _base_doc()
    doc["algo"]["t_max"] = 25.0
    doc["experiment"]["trials"] = 2.0
    spec, echo, _ = parse_config(doc, "run")
    assert spec.algo.t_max == 25 and spec.trials == 2
    assert echo["algo"]["t_max"] == 25 and isinstance(echo["algo"]["t_max"], int)


def test_parse_config_sweep_required_for_sweep_command():
    with pytest.raises(ConfigError):
        parse_config(_base_doc(), "sweep")
    doc = _base_doc(sweep=[[0.2, 3.0, 150]])
    spec, echo, _ = parse_config(doc, "sweep")
    assert spec.sweep == ((0.2, 3.0, 150),)
    assert echo["sweep"] == [[0.2, 3.0, 150]]


def test_seed_resolution_order(monkeypatch):
    monkeypatch.delenv("QISAC_SEED", raising=False)
    assert cli._resolve_seed(9, 5, True) == 9
    assert cli._resolve_seed(None, 5, True) == 5
    assert cli._resolve_seed(None, 0, False) == 0
    monkeypatch.setenv("QISAC_SEED", "31")
    assert cli._resolve_seed(None, 0, False) == 31
    assert cli._resolve_seed(None, 5, True) == 5
    monkeypatch.setenv("QISAC_SEED", "not-an-int")
    with pytest.raises(ConfigError):
        cli._resolve_seed(None, 0, False)


# ----------------------------------------------------------------- analytics

def test_analytics_outputs(tmp_path):
    rc = main(["--out-dir", str(tmp_path), "analytics",
               "--grid", "19", "--n", "100", "--pareto-points", "5"])
    assert rc == 0

    grid = (tmp_path / "analytics_grid.csv").read_text().splitlines()
    assert grid[0] == "phi_deg,ber_theory,fisher,fisher_high_snr"
    assert len(grid) == 20
    first = grid[1].split(",")
    assert float(first[0]) == 0.0
    # zero offset: classical matched-filter error floor, no phase information
    assert float(first[1]) == pytest.approx(q_function(4.0 / math.sqrt(3.5)), rel=1e-12)
    assert float(first[2]) == 0.0
    mid = dict(zip(grid[0].split(","), grid[10].split(",")))
    assert float(mid["phi_deg"]) == 90.0
    assert abs(float(mid["ber_theory"]) - 0.5) < 1e-15

    fcm = json.loads((tmp_path / "analytics_fcmax.json").read_text())
    assert fcm["n"] == 100
    assert fcm["fc_max"] == pytest.approx(100 * fcm["fisher_peak_per_symbol"], rel=1e-12)
    assert fcm["fc_max"] <= fcm["upper_bound_n_a2_over_sigma2"]
    assert 45.0 < fcm["phi_argmax_deg"] < 90.0

    pareto = (tmp_path / "analytics_pareto.csv").read_text().splitlines()
    assert pareto[0] == "gamma_frac,gamma_min,phi_star_deg,ber"
    assert len(pareto) == 6
    bers = [float(r.split(",")[3]) for r in pareto[1:]]
    assert bers == sorted(bers)


def test_analytics_rejects_bad_grid(tmp_path):
    rc = main(["--out-dir", str(tmp_path / "x"), "analytics", "--grid", "1"])
    assert rc == 2
    assert not (tmp_path / "x").exists()


# ----------------------------------------------------------------------- run

def test_run_outputs_and_reproducibility(tmp_path, monkeypatch):
    monkeypatch.delenv("QISAC_SEED", raising=False)
    cfg = _write_doc(tmp_path, _base_doc())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--out-dir", str(out1), "--threads", "2", "run", cfg]) == 0
    assert main(["--out-dir", str(out2), "--threads", "1", "run", cfg]) == 0

    # byte-identical rerun regardless of worker count
    assert (out1 / "run_trace.csv").read_bytes() == (out2 / "run_trace.csv").read_bytes()
    assert (out1 / "run_summary.json").read_bytes() == (out2 / "run_summary.json").read_bytes()

    trace = (out1 / "run_trace.csv").read_text().splitlines()
    assert trace[0] == ("iter,trial,theta_hat_deg,psi_deg,fc,fc_max,"
                        "ber_emp,ber_theory,target")
    assert all(row.split(",")[8] in ("com", "sen") for row in trace[1:])

    doc = json.loads((out1 / "run_summary.json").read_text())
    assert doc["master_seed"] == 5
    assert doc["config"]["experiment"]["seed"] == 5
    assert doc["trials_ok"] == 2
    assert doc["trials_failed"] == []
    assert len(doc["steady"]["psi_deg_per_trial"]) == 2
    assert doc["steady"]["fc_over_gamma_median"] > 0
    # echo must re-parse to the executed spec
    spec_echo, _, _ = parse_config(doc["config"], "run")
    assert spec_echo.seed == 5


def test_run_seed_flag_overrides_config(tmp_path, monkeypatch):
    monkeypatch.delenv("QISAC_SEED", raising=False)
    cfg = _write_doc(tmp_path, _base_doc())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--seed", "99", "--out-dir", str(out1), "run", cfg]) == 0
    assert main(["--out-dir", str(out2), "run", cfg]) == 0
    doc1 = json.loads((out1 / "run_summary.json").read_text())
    assert doc1["master_seed"] == 99
    assert doc1["config"]["experiment"]["seed"] == 99
    assert (out1 / "run_trace.csv").read_bytes() != (out2 / "run_trace.csv").read_bytes()


def test_run_env_seed_fallback(tmp_path, monkeypatch):
    doc = _base_doc()
    del doc["experiment"]["seed"]
    cfg = _write_doc(tmp_path, doc)
    monkeypatch.setenv("QISAC_SEED", "123")
    out = tmp_path / "env"
    assert main(["--out-dir", str(out), "run", cfg]) == 0
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["master_seed"] == 123


def test_run_bad_config_exits_2_without_outputs(tmp_path):
    cfg = _write_doc(tmp_path, {"channel": {}})
    out = tmp_path / "nope"
    rc = main(["--out-dir", str(out), "run", cfg])
    assert rc == 2
    assert not out.exists()


def test_run_missing_config_file_exits_2(tmp_path):
    rc = main(["--out-dir", str(tmp_path), "run", str(tmp_path / "absent.json")])
    assert rc == 2


def test_run_numerical_failure_exits_3(tmp_path, monkeypatch):
    from qisac import QisacError

    def explode(spec, threads=1):
        raise QisacError("all trials failed")

    monkeypatch.setattr(cli, "run_convergence_experiment", explode)
    cfg = _write_doc(tmp_path, _base_doc())
    rc = main(["--out-dir", str(tmp_path / "f"), "run", cfg])
    assert rc == 3


# --------------------------------------------------------------------- sweep

def test_sweep_outputs(tmp_path, monkeypatch):
    monkeypatch.delenv("QISAC_SEED", raising=False)
    doc = _base_doc(sweep=[[0.0, 3.0, 150], [0.4, 3.0, 150]])
    doc["algo"]["t_max"] = 12
    doc["experiment"]["trials"] = 2
    cfg = _write_doc(tmp_path, doc)
    out = tmp_path / "sw"
    assert main(["--out-dir", str(out), "--threads", "2", "sweep", cfg]) == 0

    rows = (out / "sweep_results.csv").read_text().splitlines()
    assert rows[0] == "gamma_frac,Na,N,ber_sim,ber_stderr,ber_theory_known_theta"
    assert len(rows) == 3
    assert [float(r.split(",")[0]) for r in rows[1:]] == [0.0, 0.4]

    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["trials_per_point"] == 2
    assert all(p["feasible"] for p in summary["points"])
    assert summary["config"]["sweep"] == [[0.0, 3.0, 150], [0.4, 3.0, 150]]


def test_sweep_bad_entry_exits_2_without_outputs(tmp_path):
    cfg = _write_doc(tmp_path, _base_doc(sweep=[[0.2, 3.0, 0]]))
    out = tmp_path / "s"
    rc = main(["--out-dir", str(out), "sweep", cfg])
    assert rc == 2
    assert not out.exists()


def test_sweep_without_section_exits_2(tmp_path):
    cfg = _write_doc(tmp_path, _base_doc())
    rc = main(["--out-dir", str(tmp_path / "s"), "sweep", cfg])
    assert rc == 2


# ------------------------------------------------------------ entry points

def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qisac.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "analytics" in proc.stdout
    assert "sweep" in proc.stdout


def test_float_formatting_roundtrip():
    vals = [0.1, 1e-17, math.pi, 0.016254722322859766]
    for v in vals:
        assert float(cli._fmt(v)) == v
