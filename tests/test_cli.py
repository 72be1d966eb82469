import json
import math
import subprocess
import sys

import pytest

import qisac.cli as cli
from qisac import (
    ChannelParams,
    ConfigError,
    ber_theory,
    fisher_high_snr,
    fisher_symbol,
    q_function,
)
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


def test_parse_config_zero_eps_disables_outer_stop_only():
    # eps: 0 means "always run t_max iterations"; the inner EM tolerance
    # cannot be zero, so it falls back to the default
    doc = _base_doc()
    doc["algo"]["eps"] = 0.0
    spec, echo, _ = parse_config(doc, "run")
    assert spec.algo.eps == 0.0
    assert spec.algo.em.eps == 1e-3
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
    lambda d: d["algo"].update(newton_max="100"),     # not an algo key
    lambda d: d["algo"].update(t_max=True),
    lambda d: d["algo"].update(block_refresh="false"),
    lambda d: d["algo"].update(block_refresh=0),
    lambda d: d["channel"].update(Na=float("nan")),
    lambda d: d["channel"].update(E=True),              # bool is not a number
    lambda d: d["channel"].update(eta="0.8"),
    lambda d: d["channel"].update(Na=None),
    lambda d: d["channel"].update(theta_deg="45"),
    lambda d: d["channel"].update(E=[10.0]),
    lambda d: d["algo"].update(gamma_frac=True),
    lambda d: (d["algo"].pop("gamma_frac"), d["algo"].update(gamma_abs="100")),
    lambda d: d["algo"].update({"lambda": "0.05"}),
    lambda d: d["algo"].update(eps=None),
    lambda d: d["algo"].update(psi0_deg=False),
    lambda d: d.update(sweep=[[True, 3.0, 150]]),
    lambda d: d.update(sweep=[[0.2, "3", 150]]),
    lambda d: d["algo"].update(gamma_frac=float("nan")),
    lambda d: (d["algo"].pop("gamma_frac"), d["algo"].update(gamma_abs=float("nan"))),
    lambda d: (d["algo"].pop("gamma_frac"), d["algo"].update(gamma_abs=float("inf"))),
    lambda d: d["algo"].update(eps=float("inf")),
    lambda d: d["channel"].update(theta_deg=float("-inf")),
    lambda d: d["channel"].update(E=10**400),           # integer beyond the double range
    lambda d: d.update(sweep=[[float("nan"), 3.0, 150]]),
    lambda d: d["channel"].update(theta=30.0),          # not a channel key
    lambda d: d["experiment"].update(trails=5),         # not an experiment key
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


def test_parse_config_accepts_integers_for_float_fields():
    doc = _base_doc(sweep=[[0, 3, 150]])
    doc["channel"] = {"E": 10, "eta": 1, "Na": 3, "theta_deg": 45}
    doc["algo"].update({"lambda": 1, "eps": 0, "psi0_deg": 90})
    spec, echo, _ = parse_config(doc, "run")
    assert spec.params.E == 10.0 and spec.algo.lam == 1.0
    assert spec.sweep == ((0.0, 3.0, 150),)
    assert isinstance(echo["channel"]["E"], float)
    assert isinstance(echo["algo"]["lambda"], float)


def test_parse_config_echo_layout():
    # run_summary.json and sweep_summary.json embed the echo: its key order
    # is the tables', not the file's, and each angle echoes as the degrees
    # of the radians the library runs with
    doc = {
        "sweep": [[0.1, 3, 5000], [0.9, 0, 50000]],
        "experiment": {"seed": 707, "trials": 8, "n_block": 5000},
        "algo": {"block_refresh": False, "psi0_deg": 60, "l_max": 200, "t_max": 350,
                 "eps": 0, "lambda": 0.015, "gamma_abs": 120},
        "channel": {"theta_deg": 30, "Na": 3, "eta": 0.8, "E": 10},
    }
    _, echo, _ = parse_config(doc, "sweep")
    assert json.dumps(echo) == (
        '{"channel": {"E": 10.0, "eta": 0.8, "Na": 3.0, "theta_deg": 29.999999999999996}, '
        '"algo": {"gamma_abs": 120.0, "lambda": 0.015, "eps": 0.0, "t_max": 350, '
        '"l_max": 200, "psi0_deg": 59.99999999999999, "block_refresh": false}, '
        '"experiment": {"n_block": 5000, "trials": 8, "seed": 707}, '
        '"sweep": [[0.1, 3.0, 5000], [0.9, 0.0, 50000]]}'
    )


def test_parse_config_null_seed_means_no_seed(tmp_path, monkeypatch):
    doc = _base_doc()
    doc["experiment"]["seed"] = None
    spec, echo, had_seed = parse_config(doc, "run")
    assert not had_seed
    assert spec.seed == 0 and echo["experiment"]["seed"] == 0
    doc["experiment"]["seed"] = 0
    assert parse_config(doc, "run")[2]
    # so QISAC_SEED applies to a null seed, and not to a seed of 0
    monkeypatch.setenv("QISAC_SEED", "123")
    for seed, master in ((None, 123), (0, 0)):
        doc["experiment"]["seed"] = seed
        out = tmp_path / f"seed_{seed}"
        assert main(["--out-dir", str(out), "run", _write_doc(tmp_path, doc)]) == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["master_seed"] == master
        assert summary["config"]["experiment"]["seed"] == master


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


def test_analytics_grid_matches_library_at_each_offset(tmp_path):
    # the grid row at phi is the theta = phi channel read at LO phase 0; at
    # E = 1000, Na = 0 the grid crosses r = A|cos(phi)|/sigma = _R_EDGE,
    # where the table of h gives way to h = 1
    for E, Na, grid in ((3.7, 0.4, 37), (1000.0, 0.0, 181)):
        out = tmp_path / f"E{E}"
        assert main(["--out-dir", str(out), "analytics", "--E", repr(E), "--Na", repr(Na),
                     "--grid", str(grid), "--n", "50", "--pareto-points", "2"]) == 0
        rows = (out / "analytics_grid.csv").read_text().splitlines()[1:]
        assert len(rows) == grid
        past_edge = 0
        for row in rows:
            pd, ber, fisher, high_snr = (float(v) for v in row.split(","))
            p = ChannelParams(E=E, eta=0.8, Na=Na, theta=math.radians(pd))
            assert ber == ber_theory(p, 0.0)
            assert fisher == fisher_symbol(p, 0.0).per_symbol
            assert high_snr == fisher_high_snr(p, 0.0)
            past_edge += p.amplitude() * abs(math.cos(p.theta)) / math.sqrt(p.noise_var()) >= 9.0
        assert (past_edge > 0) == (E == 1000.0)
        assert past_edge < grid


def _fmt(v) -> str:
    """The CLI's CSV value format: 17 significant digits for floats, str() otherwise."""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _csv_reference(header, rows) -> str:
    """What csv.writer writes for the header and each row's values through _fmt."""
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def test_write_csv_matches_csv_writer(tmp_path):
    import numpy as np

    odd = [-0.0, 0.0, 1e-300, 5e-324, math.nan, math.inf, -math.inf, 0.1, 1.0 / 3.0, 1e17]
    rows = [(k, k % 2 == 0, "com" if k % 3 else "sen", odd[k % len(odd)],
             np.float64(odd[(k + 3) % len(odd)]), float(k), -k)
            for k in range(40)]
    # value types that differ from row to row
    rows += [(1.5, 2, "sen", np.float64(-0.0), True, np.int64(7), 0.25),
             (np.float64(math.nan), np.int64(7), "com", 2.5, False, -np.inf, -1e-300)]
    header = ["i", "flag", "target", "x", "y", "z", "w"]
    cli._write_csv(tmp_path / "t.csv", header, rows)
    assert (tmp_path / "t.csv").read_bytes() == _csv_reference(header, rows).encode()


def test_write_csv_matches_csv_writer_on_run_rows(tmp_path, monkeypatch):
    written = []
    write_csv = cli._write_csv

    def recording(path, header, rows):
        rows = list(rows)
        written.append((path, header, rows))
        write_csv(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", recording)
    cfg = _write_doc(tmp_path, _base_doc())
    assert main(["--out-dir", str(tmp_path / "r"), "run", cfg]) == 0
    (path, header, rows), = written
    assert len(header) == 11 and len(rows) > 20
    assert {row[8] for row in rows} <= {"com", "sen"}
    assert path.read_bytes() == _csv_reference(header, rows).encode()


def test_analytics_rejects_bad_grid(tmp_path):
    rc = main(["--out-dir", str(tmp_path / "x"), "analytics", "--grid", "1"])
    assert rc == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag,value", [("--n", "0"), ("--n", "-3"),
                                        ("--pareto-points", "0"), ("--pareto-points", "-1")])
def test_analytics_rejects_bad_counts(tmp_path, capsys, flag, value):
    rc = main(["--out-dir", str(tmp_path / "x"), "analytics", flag, value])
    assert rc == 2
    assert not (tmp_path / "x").exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-2", "2", "4"])
def test_rejects_nonpositive_threads(tmp_path, capsys, threads):
    # trials run serially: the flag is kept so existing command lines still
    # parse, and every value but 1 is a configuration error
    cfg = _write_doc(tmp_path, _base_doc())
    rc = main(["--out-dir", str(tmp_path / "x"), "--threads", threads, "run", cfg])
    assert rc == 2
    assert not (tmp_path / "x").exists()
    assert "--threads" in capsys.readouterr().err


# ----------------------------------------------------------------------- run

def test_run_outputs_and_reproducibility(tmp_path, monkeypatch):
    monkeypatch.delenv("QISAC_SEED", raising=False)
    cfg = _write_doc(tmp_path, _base_doc())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--out-dir", str(out1), "run", cfg]) == 0
    assert main(["--out-dir", str(out2), "--threads", "1", "run", cfg]) == 0

    # byte-identical rerun
    assert (out1 / "run_trace.csv").read_bytes() == (out2 / "run_trace.csv").read_bytes()
    assert (out1 / "run_summary.json").read_bytes() == (out2 / "run_summary.json").read_bytes()

    trace = (out1 / "run_trace.csv").read_text().splitlines()
    assert trace[0] == ("iter,trial,theta_hat_deg,psi_deg,fc,fc_max,"
                        "ber_emp,ber_theory,target,reflect_margin,reflection_adopted")
    rows = [row.split(",") for row in trace[1:]]
    assert all(row[8] in ("com", "sen") for row in rows)
    # iteration 0 has no anchor to score against; an adopted reflection
    # always carries a margin above the evidence threshold
    assert all(row[9] == "nan" for row in rows if row[0] == "0")
    assert all(row[10] in ("0", "1") for row in rows)
    assert all(float(row[9]) > 5.0 for row in rows if row[10] == "1")

    doc = json.loads((out1 / "run_summary.json").read_text())
    assert doc["master_seed"] == 5
    assert doc["config"]["experiment"]["seed"] == 5
    assert doc["trials_ok"] == 2
    assert doc["trials_failed"] == []
    assert len(doc["steady"]["psi_deg_per_trial"]) == 2
    assert doc["steady"]["fc_over_gamma_median"] > 0
    assert doc["reflection_flips_per_trial"] == [
        sum(row[10] == "1" for row in rows if row[1] == str(k)) for k in range(2)]
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


@pytest.mark.parametrize("section,key", [("channel", "theta"), ("experiment", "trails")])
def test_run_unknown_section_key_exits_2_without_outputs(tmp_path, capsys, section, key):
    doc = _base_doc()
    doc[section][key] = 5
    out = tmp_path / "unknown"
    rc = main(["--out-dir", str(out), "run", _write_doc(tmp_path, doc)])
    assert rc == 2
    assert not out.exists()
    assert f"unknown {section} keys: ['{key}']" in capsys.readouterr().err


def test_run_boolean_channel_value_exits_2(tmp_path):
    doc = _base_doc()
    doc["channel"]["E"] = True
    out = tmp_path / "bool"
    rc = main(["--out-dir", str(out), "run", _write_doc(tmp_path, doc)])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("gamma", ['"gamma_frac": NaN', '"gamma_abs": NaN',
                                   '"gamma_abs": Infinity'])
def test_run_non_finite_gamma_exits_2(tmp_path, capsys, gamma):
    # json accepts the NaN and Infinity literals, so the file parses
    text = json.dumps(_base_doc()).replace('"gamma_frac": 0.6', gamma)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "nonfinite"
    rc = main(["--out-dir", str(out), "run", str(cfg)])
    assert rc == 2
    assert not out.exists()
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("E,eta", [(1e308, 1.0), (1e-300, 1e-300), (1e-200, 1e-200),
                                   (4e307, 1.0)])
def test_channel_outside_double_range_exits_2(tmp_path, capsys, E, eta):
    # A overflows, A underflows to 0, or (last) A^2/sigma^2 is finite but the
    # block maximum N * max F overflows at the run's N = 200 and the
    # analytics default N = 1000: each is a configuration error, before any output
    doc = _base_doc()
    doc["channel"].update(E=E, eta=eta)
    out = tmp_path / "run"
    assert main(["--out-dir", str(out), "run", _write_doc(tmp_path, doc)]) == 2
    assert not out.exists()
    out = tmp_path / "analytics"
    assert main(["--out-dir", str(out), "analytics", "--E", repr(E), "--eta", repr(eta)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.count("config error") == 2


def test_subnormal_energy_with_positive_amplitude_runs(tmp_path):
    doc = _base_doc()
    doc["channel"].update(E=1e-320, eta=1.0)
    doc["algo"]["t_max"] = 5
    out = tmp_path / "run"
    assert main(["--out-dir", str(out), "run", _write_doc(tmp_path, doc)]) == 0
    assert json.loads((out / "run_summary.json").read_text())["trials_ok"] == 2
    out = tmp_path / "analytics"
    assert main(["--out-dir", str(out), "analytics", "--E", "1e-320", "--eta", "1"]) == 0
    assert (out / "analytics_pareto.csv").exists()


def test_run_missing_config_file_exits_2(tmp_path):
    rc = main(["--out-dir", str(tmp_path), "run", str(tmp_path / "absent.json")])
    assert rc == 2


def test_run_numerical_failure_exits_3(tmp_path, monkeypatch):
    from qisac import QisacError

    def explode(spec):
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
    assert main(["--out-dir", str(out), "sweep", cfg]) == 0

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


def test_cli_never_imports_scipy(tmp_path):
    # qisac runs on numpy and the standard library; scipy.special alone
    # would add hundreds of milliseconds to every process's start-up.  The
    # table of h ships as constants and its reference quadrature lives with
    # the tests (tests/h_reference.py), so no command loads numpy.polynomial
    doc = _base_doc(experiment={"n_block": 50, "trials": 1, "seed": 3},
                    sweep=[[0.2, 3.0, 50]])
    doc["algo"]["t_max"] = 5
    cfg = _write_doc(tmp_path, doc)
    analytics = ["--out-dir", str(tmp_path / "a"), "analytics", "--grid", "5",
                 "--pareto-points", "3"]
    run = ["--out-dir", str(tmp_path / "r"), "--threads", "1", "run", cfg]
    sweep = ["--out-dir", str(tmp_path / "s"), "--threads", "1", "sweep", cfg]
    script = (
        "import sys\n"
        "import qisac.analytics\n"
        "from qisac.cli import main\n"
        "assert not hasattr(qisac.analytics, '_fisher_quad')\n"
        f"assert main({analytics!r}) == 0 and main({run!r}) == 0 and main({sweep!r}) == 0\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
        "loaded = [m for m in sys.modules if m.startswith('numpy.polynomial')]\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _child_env(**extra):
    """The test process's environment, with the imported qisac tree on the path."""
    import os
    from pathlib import Path

    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **extra)


def test_run_never_imports_numpy_ma(tmp_path):
    # the per-iteration medians and quartiles are sort-based; np.median and
    # np.quantile would import numpy.ma, ~17 ms on a process's first call
    cfg = _write_doc(tmp_path, _base_doc(experiment={"n_block": 50, "trials": 3, "seed": 3}))
    run = ["--out-dir", str(tmp_path / "r"), "run", cfg]
    script = (
        "import sys\n"
        "from qisac.cli import main\n"
        f"assert main({run!r}) == 0\n"
        "loaded = [m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')]\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr


def test_run_outputs_do_not_depend_on_blas_threads(tmp_path):
    # a BLAS dot splits long vectors across its threads and so changes the
    # last bits of a sum; every inner product here is numpy's pairwise sum
    doc = _base_doc(experiment={"n_block": 50000, "trials": 2, "seed": 11})
    doc["algo"].update(eps=0.0, t_max=12)
    cfg = _write_doc(tmp_path, doc)
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "qisac.cli", "--out-dir", str(out), "run", cfg],
            capture_output=True, text=True,
            env=_child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for name in ("run_trace.csv", "run_summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_threads_default_to_serial():
    # the flag survives only so existing command lines parse; 1 is its one value
    assert cli.build_parser().parse_args(["run", "c.json"]).threads == 1


def test_main_builds_one_parser_and_calls_share_no_options(tmp_path, monkeypatch):
    # main reuses one parser per process, yet an option given to one call
    # does not reach the next; build_parser still returns a fresh parser
    monkeypatch.delenv("QISAC_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    built = []
    real = cli.build_parser

    def counting():
        built.append(real())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        cfg = _write_doc(tmp_path, _base_doc())
        assert main(["--seed", "99", "--out-dir", str(tmp_path / "a"), "run", cfg]) == 0
        assert main(["run", cfg]) == 0
        assert main(["analytics", "--grid", "7", "--pareto-points", "3"]) == 0
        assert main(["--out-dir", str(tmp_path / "b"), "analytics"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert json.loads((tmp_path / "a" / "run_summary.json").read_text())["master_seed"] == 99
    # the second run used the config's seed and the default output directory
    assert json.loads((tmp_path / "run_summary.json").read_text())["master_seed"] == 5
    grid = (tmp_path / "b" / "analytics_grid.csv").read_text().splitlines()
    assert len(grid) == 1 + 181
    assert len((tmp_path / "analytics_grid.csv").read_text().splitlines()) == 1 + 7
    assert real() is not real()


def test_float_formatting_roundtrip(tmp_path):
    vals = [0.1, 1e-17, math.pi, 0.016254722322859766]
    cli._write_csv(tmp_path / "v.csv", ["v"], [(v,) for v in vals])
    assert [float(v) for v in (tmp_path / "v.csv").read_text().splitlines()[1:]] == vals
