import importlib.util
import json
from pathlib import Path

from qisac import analytics, cli, controller, em, montecarlo, physics
from qisac.analytics import _fisher, fisher_block
from qisac.cli import _write_csv

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_layers", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_layers_smoke(tmp_path, capsys):
    tool = _load_tool()
    path = tool.main(["--tag", "smoke", "--n", "40", "120", "--iters", "3",
                      "--repeats", "2", "--out-dir", str(tmp_path)])
    assert path == tmp_path / "BENCH_layers_smoke.json"
    doc = json.loads(path.read_text())
    assert doc["tag"] == "smoke"
    assert [r["n"] for r in doc["results"]] == [40, 120]
    for r in doc["results"]:
        us, calls = r["us_per_iter"], r["calls_per_iter"]
        assert r["iterations"] == 3 and r["repeats"] == 2
        assert set(us) == set(r["minflt_per_iter"]) == {*tool.LAYERS, "rest", "total"}
        assert all(us[k] > 0 for k in tool.LAYERS)
        assert abs(sum(us[k] for k in (*tool.LAYERS, "rest")) - us["total"]) < 1e-6 * us["total"]
        # one block, one EM run, one information evaluation and one
        # reflection margin per counted iteration
        assert calls == {"sample_block": 1.0, "run_em": 1.0, "reflection_margin": 1.0,
                         "fisher_block": 1.0}
    # the trial's names are restored
    assert montecarlo.sample_block is physics.sample_block
    assert controller.run_em is em.run_em
    assert controller.reflection_margin is em.reflection_margin
    assert controller.fisher_block is fisher_block
    # trial 0 of each sweep shape; EM runs at most once per point-iteration
    assert [sw["name"] for sw in doc["sweep"]] == ["sweep_n50k", "criterion7_n5000"]
    for sw in doc["sweep"]:
        assert sw["repeats"] == 2 and sw["us_per_point_iter"] > 0
        assert 0 < sw["point_iterations"] <= len(sw["fracs"]) * sw["t_max"]
        assert 0 < sw["run_em_per_point_iter"] <= 1.0
    assert controller.run_em is em.run_em
    ana = doc["analytics"]
    assert ana["n"] == 1000
    for key in ("first_fisher_us", "fc_max_cold_us", "fisher_argmax_cold_us",
                "pareto_us_per_call", "grid_us"):
        assert ana[key] > 0, key
    # 20 of the 21 frontier points search for a root (gamma = 0 needs none)
    assert 1.0 <= ana["pareto_fisher_evals_per_call"] <= 20.0
    assert analytics._fisher is _fisher
    assert cli._write_csv is _write_csv
    assert doc["startup"]["import_ms"] > 0
    out = capsys.readouterr().out
    assert "N=   120" in out
    assert "pareto_us_per_call" in out
    assert "startup: import_ms" in out
    assert "sweep sweep_n50k:" in out
