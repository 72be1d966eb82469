import importlib.util
import json
import os
import platform
from pathlib import Path

import numpy as np

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
