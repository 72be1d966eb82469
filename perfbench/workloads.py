"""The benchmark's workloads: inputs made from a seed, output checks, quality readouts.

Each workload turns ``--seed`` into the config files and ``qisac`` command
lines of one experiment, counts the items of work an experiment completes,
checks the files the program wrote, reads off its estimator-quality figures,
and can corrupt a copy of its outputs so that the benchmark can prove every
run that its checks still catch a bad result.

The checks are sanity bounds a correct program meets at every seed.  They do
not restate the acceptance criteria the test suite documents as expected
failures (the quarter-turn high-SNR limit and the sweep endpoints on the
known-phase frontier).
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
from pathlib import Path

from qisac import ChannelParams, fisher_high_snr, fisher_symbol, pareto_known_theta, steady_window

# Fraction of a required information level by which a recomputed block
# information may fall short of it (quadrature tolerance is 1e-8 relative).
_INFO_RTOL = 1e-6


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _rewrite(path: Path, edit) -> None:
    """Apply ``edit(rows)`` to a CSV file in place."""
    rows = _rows(path)
    edit(rows)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def _fold_deg(d: float) -> float:
    """|d| reduced mod 180 degrees to [0, 90]."""
    d = abs(d) % 180.0
    return min(d, 180.0 - d)


class Workload:
    """Base: one experiment is a list of ``qisac`` command lines run in one process."""

    name = ""
    unit = "items"
    threads = 1

    def configs(self, seed: int, cfg_dir: Path) -> dict[str, dict]:
        return {}

    def argv(self, seed: int, cfg_dir: Path, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def attempted(self) -> int:
        """Trials (or channels) one experiment attempts."""
        raise NotImplementedError

    def items(self) -> int:
        """Units of work one experiment completes: outer iterations or channels."""
        raise NotImplementedError

    def check(self, seed: int, out: Path) -> tuple[int, list[str]]:
        """(checks attempted, failure messages) for one experiment's outputs."""
        raise NotImplementedError

    def quality(self, seed: int, out: Path) -> dict[str, float]:
        return {}

    def corrupt(self, out: Path) -> None:
        raise NotImplementedError


class LoopN1k(Workload):
    """`qisac run` in the shape of configs/convergence_theta45.json, one thread."""

    name = "loop_n1k"
    unit = "iters"
    theta_deg = 45.0
    trials = 2
    t_max = 500
    n_block = 1000

    def configs(self, seed, cfg_dir):
        return {str(cfg_dir / "loop.json"): {
            "channel": {"E": 10, "eta": 0.8, "Na": 3, "theta_deg": self.theta_deg},
            "algo": {"gamma_frac": 0.6, "lambda": 0.01, "eps": 0.0,
                     "t_max": self.t_max, "psi0_deg": 90},
            "experiment": {"n_block": self.n_block, "trials": self.trials, "seed": seed},
        }}

    def argv(self, seed, cfg_dir, out):
        return [["--threads", str(self.threads), "--out-dir", str(out),
                 "run", str(cfg_dir / "loop.json")]]

    def attempted(self):
        return self.trials

    def items(self):
        return self.trials * self.t_max

    def _steady(self, out: Path) -> dict[int, list[dict[str, str]]]:
        by_trial: dict[int, list[dict[str, str]]] = {}
        for r in _rows(out / "run_trace.csv"):
            by_trial.setdefault(int(r["trial"]), []).append(r)
        return {k: v[steady_window(len(v))] for k, v in by_trial.items()}

    def check(self, seed, out):
        summary = json.loads((out / "run_summary.json").read_text())
        fails = []
        if summary["trials_ok"] != self.trials or summary["trials_failed"]:
            fails.append(f"trials ok {summary['trials_ok']}/{self.trials}")
        if summary["iterations_per_trial"] != [self.t_max] * self.trials:
            fails.append(f"iterations per trial {summary['iterations_per_trial']}")
        gamma = summary["gamma_min"]
        params = ChannelParams(E=10, eta=0.8, Na=3, theta=math.radians(self.theta_deg))
        psi_c = self.theta_deg + math.degrees(
            pareto_known_theta(params, self.n_block, gamma).phi_star)
        steady = self._steady(out)
        if len(steady) != self.trials:
            fails.append(f"run_trace.csv holds {len(steady)} trials")
        for k, rows in steady.items():
            psi = [math.radians(float(r["psi_deg"])) for r in rows]
            c = sum(math.cos(2 * p) for p in psi)
            s = sum(math.sin(2 * p) for p in psi)
            psi_s = math.degrees(math.atan2(s, c) / 2.0) % 180.0
            if _fold_deg(psi_s - psi_c) > 4.0:
                fails.append(f"trial {k}: steady psi {psi_s:.2f} deg, constraint at {psi_c:.2f}")
            ratio = sum(float(r["fc"]) for r in rows) / len(rows) / gamma
            if not 0.85 <= ratio <= 1.15:
                fails.append(f"trial {k}: steady Fc/gamma {ratio:.3f}")
            err = statistics.median(_fold_deg(float(r["theta_hat_deg"]) - self.theta_deg)
                                    for r in rows)
            if err > 10.0:
                fails.append(f"trial {k}: median steady phase error {err:.1f} deg (mirror side)")
        return 2 + 3 * self.trials, fails

    def quality(self, seed, out):
        return {"theta_err_deg": statistics.median(
            _fold_deg(float(r["theta_hat_deg"]) - self.theta_deg)
            for rows in self._steady(out).values() for r in rows)}

    def corrupt(self, out):
        def mirror(rows):
            for r in rows:
                if r["trial"] == "0":
                    r["theta_hat_deg"] = repr(float(r["theta_hat_deg"]) + 70.0)
        _rewrite(out / "run_trace.csv", mirror)


class SweepN50k(Workload):
    """`qisac sweep` in the shape of criterion 7's large-block half, one thread.

    Two worker threads would show trial parallelism, but on a 2-CPU host
    every stall of either CPU lands on the wall time: the run-to-run spread
    of that variant's throughput reached 0.23 over ten seeds.
    """

    name = "sweep_n50k"
    unit = "iters"
    fracs = (0.1, 0.5, 0.9)
    trials = 2
    t_max = 20
    n_block = 50000

    def configs(self, seed, cfg_dir):
        return {str(cfg_dir / "sweep.json"): {
            "channel": {"E": 10, "eta": 0.8, "Na": 3, "theta_deg": 30},
            "algo": {"gamma_frac": 0.0, "lambda": 0.015, "eps": 0.0,
                     "t_max": self.t_max, "psi0_deg": 90},
            "experiment": {"n_block": self.n_block, "trials": self.trials, "seed": seed},
            "sweep": [[f, 3, self.n_block] for f in self.fracs],
        }}

    def argv(self, seed, cfg_dir, out):
        return [["--threads", str(self.threads), "--out-dir", str(out),
                 "sweep", str(cfg_dir / "sweep.json")]]

    def attempted(self):
        return self.trials * len(self.fracs)

    def items(self):
        return self.trials * self.t_max * len(self.fracs)

    def check(self, seed, out):
        pts = json.loads((out / "sweep_summary.json").read_text())["points"]
        fails = []
        if len(pts) != len(self.fracs):
            fails.append(f"{len(pts)} sweep points, expected {len(self.fracs)}")
        keys = ("ber_sim", "ber_stderr", "ber_theory_known_theta", "phi_star_deg")
        for p in pts:
            if not p["feasible"] or any(p[k] is None or not math.isfinite(p[k]) for k in keys):
                fails.append(f"point gamma_frac={p['gamma_frac']}: infeasible or non-finite")
        for lo, hi in zip(pts, pts[1:]):
            slack = 2.0 * math.hypot(lo["ber_stderr"], hi["ber_stderr"])
            if hi["ber_sim"] < lo["ber_sim"] - slack:
                fails.append(f"ber_sim falls from {lo['ber_sim']:.5f} to {hi['ber_sim']:.5f} "
                             f"as gamma_frac rises to {hi['gamma_frac']}")
            if hi["ber_theory_known_theta"] < lo["ber_theory_known_theta"]:
                fails.append(f"frontier BER falls at gamma_frac={hi['gamma_frac']}")
        return 1 + 2 * len(pts), fails

    def quality(self, seed, out):
        pts = _rows(out / "sweep_results.csv")
        gaps = [abs(float(p["ber_sim"]) - float(p["ber_theory_known_theta"])) for p in pts]
        return {"ber_gap_abs": sum(gaps) / len(gaps)}

    def corrupt(self, out):
        summary = out / "sweep_summary.json"
        doc = json.loads(summary.read_text())
        doc["points"][-1]["ber_sim"] = doc["points"][0]["ber_sim"] - 0.01
        summary.write_text(json.dumps(doc))


class AnalyticsGrid(Workload):
    """`qisac analytics` over seeded channels: E log-spread on 1-1000, Na on 0-3."""

    name = "analytics_grid"
    unit = "channels"
    channels = 8
    eta = 0.8
    n_block = 1000

    def channel_list(self, seed: int) -> list[tuple[float, float]]:
        """One channel per equal stratum of log E, so every experiment reaches high SNR."""
        rng = random.Random(seed)
        k = self.channels
        nas = [3.0 * (i + rng.random()) / k for i in range(k)]
        rng.shuffle(nas)
        return [(10.0 ** (3.0 * (i + rng.random()) / k), nas[i]) for i in range(k)]

    def argv(self, seed, cfg_dir, out):
        return [["--threads", "1", "--out-dir", str(out / f"ch{i}"), "analytics",
                 "--E", repr(e), "--eta", repr(self.eta), "--Na", repr(na),
                 "--n", str(self.n_block)]
                for i, (e, na) in enumerate(self.channel_list(seed))]

    def attempted(self):
        return self.channels

    def items(self):
        return self.channels

    def check(self, seed, out):
        fails = []
        for i, (e, na) in enumerate(self.channel_list(seed)):
            d = out / f"ch{i}"
            p0 = ChannelParams(E=e, eta=self.eta, Na=na, theta=0.0)
            scale = p0.amplitude() ** 2 / p0.noise_var()
            bad = {}
            pareto = _rows(d / "analytics_pareto.csv")
            phis = [float(r["phi_star_deg"]) for r in pareto]
            if any(b < a for a, b in zip(phis, phis[1:])):
                bad["order"] = "phi_star decreases as gamma rises"
            for r, phi in zip(pareto, phis):
                gamma = float(r["gamma_min"])
                if not (phi == 0.0 if gamma == 0.0 else 0.0 < phi < 90.0):
                    bad["range"] = f"phi_star {phi} deg outside (0, 90) at gamma {gamma:.9g}"
                    continue
                p = ChannelParams(E=e, eta=self.eta, Na=na, theta=math.radians(phi))
                got = fisher_symbol(p, 0.0, n=self.n_block).block
                if got < gamma * (1.0 - _INFO_RTOL):
                    bad["info"] = f"N*F(phi_star) = {got:.9g} < gamma {gamma:.9g}"
            for r in _rows(d / "analytics_grid.csv"):
                p = ChannelParams(E=e, eta=self.eta, Na=na, theta=math.radians(float(r["phi_deg"])))
                bound = fisher_high_snr(p, 0.0)
                if float(r["fisher"]) > bound * (1.0 + _INFO_RTOL) + 1e-12 * scale:
                    bad["bound"] = f"F {r['fisher']} above the high-SNR bound at {r['phi_deg']} deg"
            fails += [f"ch{i}: {msg}" for msg in bad.values()]
        return 4 * self.channels, fails

    def corrupt(self, out):
        def shrink_last(rows):
            rows[-1]["phi_star_deg"] = repr(0.5 * float(rows[-1]["phi_star_deg"]))
        _rewrite(out / "ch0" / "analytics_pareto.csv", shrink_last)


WORKLOADS = {w.name: w for w in (LoopN1k(), SweepN50k(), AnalyticsGrid())}
