import importlib.util
import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "seeded_outputs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("seeded_outputs", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_seeded_outputs_smoke(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QISAC_SEED", "99")
    tool = _load_tool()
    out = tmp_path / "digests.json"
    doc = tool.main(["--out", str(out), "--trials", "2", "--t-max", "4"])
    assert json.loads(out.read_text()) == doc
    assert (doc["python"], doc["numpy"]) == (platform.python_version(), np.__version__)
    assert (doc["trials"], doc["t_max"]) == (2, 4)
    assert sorted(doc["sha256"]) == [
        "analytics/analytics_fcmax.json",
        "analytics/analytics_grid.csv",
        "analytics/analytics_pareto.csv",
        "run_convergence_theta45/run_summary.json",
        "run_convergence_theta45/run_trace.csv",
        "run_convergence_theta60/run_summary.json",
        "run_convergence_theta60/run_trace.csv",
        "sweep_n50k/sweep_results.csv",
        "sweep_n50k/sweep_summary.json",
        "sweep_tradeoff_theta30/sweep_results.csv",
        "sweep_tradeoff_theta30/sweep_summary.json",
    ]
    assert all(len(d) == 64 and set(d) <= set("0123456789abcdef")
               for d in doc["sha256"].values())
    # the environment's seed is set aside while the tool runs, then restored
    assert os.environ["QISAC_SEED"] == "99"
    monkeypatch.delenv("QISAC_SEED")
    assert tool.digests(trials=2, t_max=4) == doc["sha256"]
    assert "sweep_tradeoff_theta30/sweep_summary.json" in capsys.readouterr().out


def test_seeded_outputs_check_lists_every_differing_key(tmp_path, capsys):
    tool = _load_tool()
    got = {"a/x.csv": "0" * 64, "b/y.json": "1" * 64}
    ref = {"a/x.csv": "0" * 64, "b/y.json": "2" * 64, "c/z.csv": "3" * 64}
    assert tool.differing(got, ref) == ["b/y.json", "c/z.csv"]
    assert tool.differing(got, got) == []

    ref_path = tmp_path / "ref.json"
    doc = tool.main(["--out", str(ref_path), "--trials", "1", "--t-max", "2"])
    assert tool.main(["--check", str(ref_path), "--trials", "1", "--t-max", "2"]) == doc
    assert f"all {len(doc['sha256'])} digests match" in capsys.readouterr().out
    stale = dict(doc, sha256=dict(doc["sha256"]))
    stale["sha256"]["run_convergence_theta60/run_trace.csv"] = "f" * 64
    ref_path.write_text(json.dumps(stale))
    with pytest.raises(SystemExit) as stop:
        tool.main(["--check", str(ref_path), "--trials", "1", "--t-max", "2"])
    assert stop.value.code == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"differs from {ref_path}: run_convergence_theta60/run_trace.csv")
    # digests of another size are refused, not compared
    with pytest.raises(SystemExit) as stop:
        tool.main(["--check", str(ref_path), "--trials", "2", "--t-max", "2"])
    assert stop.value.code == 2
