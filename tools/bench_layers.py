"""Cost of one outer iteration of the control loop, layer by layer.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/bench_layers.py --tag change
    PYTHONPATH=src python3 tools/bench_layers.py --tag smoke --n 200 --iters 5 --repeats 1

For each block length N it runs trial 0 of an experiment seeded with
``--seed`` through the program's own trial path (``montecarlo._single_trial``,
as ``qisac run`` runs each trial) on the channel of the benchmark's
``loop_n1k`` workload (E=10, eta=0.8, Na=3, theta=45 deg, gamma = 0.6 * F_max,
lambda=0.01, eps=0, psi0=90 deg).  The names the trial calls are wrapped in
place with timers and minor-page-fault counters
(``getrusage(RUSAGE_SELF).ru_minflt``, this process only):

- ``sample_block``   drawing the block (``qisac.montecarlo.sample_block``,
  called by the trial's block source once per iteration),
- ``run_em``         EM on the block,
- ``reflection_margin`` reflection scoring against the held anchor block
  (``qisac.controller.reflection_margin``, one call per iteration),
- ``fisher_block``   the block Fisher information from the run's A and
  sigma^2 (``qisac.controller.fisher_block``, one call per iteration),
- ``rest``           what the whole iteration spends outside those calls,
  the trial's derivation of its block seeds included,
- ``total``          the whole iteration, block draw to block draw.

The first iteration, which pays the one-time ``fc_max``, is not counted.  Each
N runs ``--repeats`` times and the run with the smallest total is reported,
so the layer figures of one N always add up to its total.

The analytics path, which ``qisac analytics`` runs once per channel, is timed
on the same channel with N = 1000.  A single cold call lasts microseconds to
milliseconds and its timing varies from shot to shot, so each cold figure is
the median of ``COLD_REPS`` repetitions (``cold_reps`` in the output), each
from the same cleared state:

- ``first_fisher_us``      ``fisher_symbol`` after every cache of
  ``qisac.analytics`` is cleared, imports excluded: one O(1) evaluation on
  the shipped table of h,
- ``fc_max_cold_us``       ``fc_max`` with the per-channel caches cleared,
- ``fisher_argmax_cold_us`` the same for ``fisher_argmax``,
- ``grid_us``              the 181-point offset grid as ``qisac analytics``
  builds it: ``cli.cmd_analytics`` on the theta = 0 channel from entry to its
  first CSV write (which is not made).

The cold figures carry a per-process offset that the median does not
remove: on unchanged analytics code, two runs back to back have read
``fc_max_cold_us``, ``fisher_argmax_cold_us`` and ``grid_us`` up to about
1.5x apart.  A before/after of those keys therefore needs several runs of
both trees, alternating which one runs first.

Two per-call figures complete it:

- ``pareto_us_per_call``   ``pareto_known_theta`` over the 21 points of the
  frontier that ``qisac analytics`` writes, per call (best of ``--repeats``),
- ``pareto_fisher_evals_per_call`` the Fisher evaluations (``_fisher``) those
  21 calls make, per call, with the channel's peak search already cached.

Start-up is timed as ``startup.import_ms``: ``import qisac.cli`` in a fresh
interpreter that imports the same qisac tree, best of ``--repeats``.

The result is written to ``BENCH_layers_<tag>.json`` in ``--out-dir``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import qisac
from qisac import analytics, cli, controller, montecarlo
from qisac.controller import AlgoConfig
from qisac.montecarlo import ExperimentSpec
from qisac.physics import ChannelParams

LAYERS = ("sample_block", "run_em", "reflection_margin", "fisher_block")
# the layers the trial calls by module-level name, wrapped in place
SEAMS = ((montecarlo, "sample_block"), (controller, "run_em"),
         (controller, "reflection_margin"), (controller, "fisher_block"))
PARAMS = ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=math.radians(45.0))
CHANNEL_CACHES = ("_fisher_peak",)   # caches keyed by (A, sigma^2)
PARETO_POINTS = 21
COLD_REPS = 101    # repetitions behind each cold analytics median


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class _Meter:
    """Per-layer time and minor faults, counted from the second iteration on."""

    def __init__(self):
        self.t = -1                                # iteration of the latest block draw
        self.marks: list[tuple[float, int]] = []   # (time, faults) at each block draw
        self.us = dict.fromkeys(LAYERS, 0.0)
        self.faults = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            if name == "sample_block":   # one draw opens each iteration
                self.t += 1
                self.marks.append((time.perf_counter(), _minflt()))
            f0, t0 = _minflt(), time.perf_counter()
            out = fn(*args, **kwargs)
            t1, f1 = time.perf_counter(), _minflt()
            if self.t >= 1:
                self.us[name] += (t1 - t0) * 1e6
                self.faults[name] += f1 - f0
                self.calls[name] += 1
            return out

        return timed


def measure(n: int, iters: int, seed: int) -> dict:
    """Trial 0 of an experiment seeded with ``seed``, ``iters`` counted iterations at length ``n``."""
    meter = _Meter()
    algo = AlgoConfig(gamma_min=0.6, gamma_relative=True, lam=0.01, eps=0.0,
                      t_max=iters + 1, psi0=math.radians(90.0))
    spec = ExperimentSpec(params=PARAMS, algo=algo, n_block=n, trials=1, seed=seed)
    saved = [(mod, name, getattr(mod, name)) for mod, name in SEAMS]
    try:
        for mod, name, fn in saved:
            setattr(mod, name, meter.wrap(name, fn))
        montecarlo._single_trial(spec, 0)
        end = (time.perf_counter(), _minflt())
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)

    (t1, f1), (t2, f2) = meter.marks[1], end
    us = {k: v / iters for k, v in meter.us.items()}
    faults = {k: v / iters for k, v in meter.faults.items()}
    us["total"] = (t2 - t1) * 1e6 / iters
    faults["total"] = (f2 - f1) / iters
    us["rest"] = us["total"] - sum(us[k] for k in LAYERS)
    faults["rest"] = faults["total"] - sum(faults[k] for k in LAYERS)
    return {
        "n": n,
        "iterations": iters,
        "us_per_iter": us,
        "minflt_per_iter": faults,
        "calls_per_iter": {k: v / iters for k, v in meter.calls.items()},
    }


def _clear_caches(names) -> None:
    for name in names:
        getattr(analytics, name).cache_clear()


def _timed_us(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e6


def _pareto_fisher_evals(gammas, n: int) -> float:
    """Mean ``_fisher`` calls of ``pareto_known_theta`` over ``gammas``, peak search cached."""
    analytics.fc_max(PARAMS, n)
    fisher, calls = analytics._fisher, [0]

    def counting(*args):
        calls[0] += 1
        return fisher(*args)

    analytics._fisher = counting
    try:
        for g in gammas:
            analytics.pareto_known_theta(PARAMS, n, g)
    finally:
        analytics._fisher = fisher
    return calls[0] / len(gammas)


class _GridDone(Exception):
    pass


def _grid_us(out_dir: Path) -> float:
    """``cmd_analytics`` from entry to its first CSV write, the offset grid."""
    args = cli.build_parser().parse_args(
        ["--out-dir", str(out_dir), "analytics", "--E", repr(PARAMS.E),
         "--eta", repr(PARAMS.eta), "--Na", repr(PARAMS.Na)])

    def stop(*_):
        raise _GridDone(time.perf_counter())

    write_csv, cli._write_csv = cli._write_csv, stop
    try:
        t0 = time.perf_counter()
        cli.cmd_analytics(args)
    except _GridDone as done:
        return (done.args[0] - t0) * 1e6
    finally:
        cli._write_csv = write_csv
    raise RuntimeError("cmd_analytics wrote no CSV")


def measure_analytics(repeats: int, out_dir: Path, n: int = 1000) -> dict:
    """Median cold costs (``COLD_REPS`` each) and best-of-``repeats`` per-call costs."""
    every_cache = [name for name, f in vars(analytics).items() if hasattr(f, "cache_clear")]
    gammas = [k / (PARETO_POINTS - 1) * analytics.fc_max(PARAMS, n)
              for k in range(PARETO_POINTS)]

    def first_fisher():
        _clear_caches(every_cache)
        return _timed_us(lambda: analytics.fisher_symbol(PARAMS, 0.0))

    def cold(fn):
        _clear_caches(CHANNEL_CACHES)
        return _timed_us(fn)

    def pareto():
        cold(lambda: analytics.fc_max(PARAMS, n))     # warm the channel caches
        t = _timed_us(lambda: [analytics.pareto_known_theta(PARAMS, n, g) for g in gammas])
        return t / PARETO_POINTS

    def median(run):
        return statistics.median(run() for _ in range(COLD_REPS))

    out = {
        "first_fisher_us": median(first_fisher),
        "fc_max_cold_us": median(lambda: cold(lambda: analytics.fc_max(PARAMS, n))),
        "fisher_argmax_cold_us": median(lambda: cold(lambda: analytics.fisher_argmax(PARAMS))),
        "pareto_us_per_call": min(pareto() for _ in range(repeats)),
        "grid_us": median(lambda: _grid_us(out_dir)),
    }
    out["pareto_fisher_evals_per_call"] = _pareto_fisher_evals(gammas, n)
    out["cold_reps"] = COLD_REPS
    out["n"] = n
    return out


_IMPORT_SCRIPT = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import qisac.cli\n"
    "print((time.perf_counter() - t0) * 1e3)\n"
)


def measure_startup(repeats: int) -> dict:
    """Best-of-``repeats`` wall time of ``import qisac.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(qisac.__file__).resolve().parents[1]))
    runs = [float(subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT], env=env, check=True,
                                 capture_output=True, text=True).stdout)
            for _ in range(repeats)]
    return {"import_ms": min(runs)}


def _context() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "qisac_src_sha256": _src_digest(),
    }


def _src_digest() -> str:
    """SHA-256 over the imported qisac package's sources, to tell two trees apart."""
    h = hashlib.sha256()
    for f in sorted(Path(qisac.__file__).resolve().parent.glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> Path:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True, help="names the output BENCH_layers_<tag>.json")
    ap.add_argument("--n", type=int, nargs="+", default=[1000, 5000, 50000])
    ap.add_argument("--iters", type=int, default=150, help="counted iterations per run")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args(argv)
    if args.iters < 1 or args.repeats < 1 or min(args.n) < 1:
        ap.error("--n, --iters and --repeats must be >= 1")

    results = []
    for n in args.n:
        runs = [measure(n, args.iters, args.seed) for _ in range(args.repeats)]
        best = min(runs, key=lambda r: r["us_per_iter"]["total"])
        best["repeats"] = args.repeats
        results.append(best)
        us, flt = best["us_per_iter"], best["minflt_per_iter"]
        print(f"N={n:>6}: " + "  ".join(
            f"{k} {us[k]:8.1f} us {flt[k]:6.1f} flt" for k in (*LAYERS, "rest", "total")))

    with tempfile.TemporaryDirectory() as tmp:
        ana = measure_analytics(args.repeats, Path(tmp))
    print("analytics: " + "  ".join(f"{k} {v:9.1f}" for k, v in ana.items() if k != "n"))
    startup = measure_startup(args.repeats)
    print(f"startup: import_ms {startup['import_ms']:9.1f}")

    doc = {
        "tag": args.tag,
        "channel": {"E": PARAMS.E, "eta": PARAMS.eta, "Na": PARAMS.Na, "theta": PARAMS.theta},
        "loop": {"gamma_relative": 0.6, "lam": 0.01, "eps": 0.0, "psi0_deg": 90.0,
                 "seed": args.seed},
        "context": _context(),
        "results": results,
        "analytics": ana,
        "startup": startup,
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"BENCH_layers_{args.tag}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    return path


if __name__ == "__main__":
    main(sys.argv[1:])
