"""qisac benchmark: closed-loop experiments through the `qisac` command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload loop_n1k --seed 1 --seconds 20 --trace 0

One client runs one experiment at a time and starts the next only when the
previous one has finished (a closed loop).  Each experiment is a fresh
interpreter running perfbench/experiment.py, which imports qisac from
``src/``, writes the seeded inputs and calls ``qisac.cli.main`` with the
workload's command lines, so every experiment pays the program's own
per-process costs (e.g. ``fc_max``) as a user's ``qisac`` invocation does.
The only concurrency is the program's own ``--threads``.

Every experiment of a run repeats the same seeded inputs.  The first one is
untraced; its outputs are checked, a corrupted copy of them must fail the
same checks, and every later experiment must write byte-identical outputs.
With ``--trace 1`` the later experiments run with the span tracer installed,
so that comparison also proves tracing only observes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it
show the same figures by name and unit, the run's context and, when traced,
the per-layer self-time table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 3          # set-up-only launches per run, besides the experiments
MIN_EXPERIMENTS = 2       # the reference plus at least one repeat (or traced) run
EXPERIMENT_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _loadavg() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_id() -> dict[str, str]:
    """The qisac commit when the tree is a git checkout, and a digest of src/ always."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    ident = {"src_sha256": h.hexdigest()[:16]}
    if (ROOT / ".git").exists():
        try:
            ident["commit"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return ident


def _context() -> dict:
    import numpy
    import scipy

    import qisac
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "qisac": qisac.__version__, **_source_id()}


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(q for q in out.rglob("*") if q.is_file()):
        h.update(str(p.relative_to(out)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _launch(work, seed: int, run_dir: Path, tag: str, trace: bool, commands: bool = True) -> dict:
    """Run one experiment (or, without commands, only its set-up) in a fresh interpreter."""
    cfg_dir = run_dir / f"{tag}-in"
    out = run_dir / tag
    cfg_dir.mkdir(parents=True)
    job = {
        "src": str(SRC),
        "configs": work.configs(seed, cfg_dir),
        "argv": work.argv(seed, cfg_dir, out) if commands else [],
        "trace": trace,
        "result": str(run_dir / f"{tag}.result.json"),
    }
    job_path = run_dir / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    # the program's --threads is the only concurrency: keep numeric
    # libraries from starting pools of their own
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "experiment.py"), str(job_path)],
                              cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=EXPERIMENT_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"experiment {tag} exceeded {EXPERIMENT_TIMEOUT_S} s") from err
    if proc.returncode != 0:
        raise BenchError(f"experiment {tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(Path(job["result"]).read_text())
    res["setup_s"] = res["ready"] - spawned
    res["wall_s"] = sum(r["wall_s"] for r in res["runs"])
    res["cpu_s"] = sum(r["cpu_s"] for r in res["runs"])
    res["out"] = out
    return res


def _typical(exps: list[dict], key: str) -> float:
    """One experiment's typical cost: per command, the median over experiments, summed.

    Every experiment of a run repeats the same commands, so a stall of the
    host during one command of one experiment moves no term of the sum.
    """
    return sum(statistics.median(e["runs"][i][key] for e in exps)
               for i in range(len(exps[0]["runs"])))


def _check(work, seed: int, out: Path) -> tuple[int, list[str]]:
    """The workload's checks; outputs too broken to read count as one failed check."""
    try:
        return work.check(seed, out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
        return 1, [f"outputs unreadable: {type(err).__name__}: {err}"]


def _print_table(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<44} {value:>16.6g} {unit}")


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    from tracer import merged_table, per_layer_metrics
    from workloads import WORKLOADS

    work = WORKLOADS[workload]
    context = _context()
    context["loadavg_1m_start"] = _loadavg()
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setups = [_launch(work, seed, run_dir, f"probe{i}", False, commands=False)["setup_s"]
              for i in range(SETUP_PROBES)]

    exps: list[dict] = []
    begin = time.perf_counter()
    while True:
        k = len(exps)
        res = _launch(work, seed, run_dir, f"e{k}", trace and k > 0)
        res["traced"] = trace and k > 0
        res["threads"] = work.threads
        res["digest"] = _digest(res["out"])
        exps.append(res)
        if k > 0:
            shutil.rmtree(res["out"])
        elapsed = time.perf_counter() - begin
        typical = statistics.median(e["wall_s"] + e["setup_s"] for e in exps)
        if len(exps) >= MIN_EXPERIMENTS and elapsed + 0.5 * typical > seconds:
            break
    setups += [e["setup_s"] for e in exps]

    ref = exps[0]
    attempted = failed = 0
    problems: list[str] = []
    for k, e in enumerate(exps):
        attempted += work.attempted()
        failed += e["failed_trials"]
        bad = [r["code"] for r in e["runs"] if r["code"] != 0]
        failed += len(bad)
        problems += [f"e{k}: qisac exited {c}" for c in bad]
        if k > 0:
            attempted += 1
            if e["digest"] != ref["digest"]:
                failed += 1
                what = "traced" if e["traced"] else "repeated"
                problems.append(f"e{k}: {what} run's outputs differ from the first run's")
    n_checks, fails = _check(work, seed, ref["out"])
    attempted += n_checks
    failed += len(fails)
    problems += fails
    quality = {}
    if not fails:
        bad_copy = run_dir / "corrupted"
        shutil.copytree(ref["out"], bad_copy)
        work.corrupt(bad_copy)
        attempted += 1
        if not _check(work, seed, bad_copy)[1]:
            failed += 1
            problems.append("self-test: the checks pass a corrupted copy of the outputs")
        shutil.rmtree(bad_copy)
        quality = work.quality(seed, ref["out"])

    items = work.items()
    untraced = [e for e in exps if not e["traced"]]
    e2e = {
        "setup_s": statistics.median(setups),
        "items_per_s": items / _typical(untraced, "wall_s"),
        "cpu_ms_per_item": 1e3 * _typical(untraced, "cpu_s") / items,
        "peak_rss_mb": statistics.median(e["maxrss_mb"] for e in untraced),
    }
    context["loadavg_1m_end"] = _loadavg()
    fail_ratio = failed / attempted

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"experiments {len(exps)} ({len(exps) - len(untraced)} traced)  "
          f"set-up samples {len(setups)}")
    print("context: " + json.dumps(context))
    alias = work.unit
    rows = [("setup_s", e2e["setup_s"], "s"),
            (f"{alias}_per_s", e2e["items_per_s"], "1/s"),
            (f"cpu_ms_per_{alias.rstrip('s')}", e2e["cpu_ms_per_item"], "ms"),
            ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
            ("fail_ratio", fail_ratio, "ratio")]
    rows += [(name, v, "deg" if name.endswith("_deg") else "ratio")
             for name, v in quality.items()]
    _print_table("end to end (untraced experiments, medians):", rows)
    for p in problems:
        print(f"  FAILED CHECK: {p}")

    if trace:
        traced = [e for e in exps if e["traced"]]
        layers = per_layer_metrics(traced)
        layers["em.theta_err_deg"] = quality.get("theta_err_deg", 0.0)
        layers["em.ber_gap_abs"] = quality.get("ber_gap_abs", 0.0)
        layers["bench.trace_overhead"] = (
            statistics.median(e["wall_s"] for e in traced) / ref["wall_s"] - 1.0)
        table = merged_table(traced)
        busy = sum(r["self_s"] for r in table.values()) or 1.0
        print(f"per-layer self time over {len(traced)} traced experiments "
              f"(share of {busy:.3f} busy thread-seconds):")
        for name, r in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:<44} calls {r['calls']:>8}  self {r['self_s']:9.3f} s  "
                  f"share {r['self_s'] / busy:7.2%}")
        untraced_seams = sorted({s for e in traced for s in e["untraced"]})
        for s in untraced_seams:
            print(f"  untraced: {s} (seam not found)")
        (run_dir / "spans.json").write_text(json.dumps(
            {"untraced": untraced_seams, "experiments": [e["spans"] for e in traced]}))
        metrics = layers
    else:
        metrics = e2e
    (run_dir / "context.json").write_text(json.dumps(context, indent=2))

    # BENCHMARK.json names the metrics and their units; a mismatch is a bug here
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}")
    if trace:
        _print_table("per layer (traced experiments):",
                     [(k, v, units[k]) for k, v in metrics.items()])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qisac" / "__init__.py").is_file():
        print(f"perfbench: no qisac sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import workloads
    except ImportError as err:
        print(f"perfbench: cannot import qisac: {err}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
