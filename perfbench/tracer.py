"""Span tracer that observes qisac from outside, by wrapping the names its callers bind.

Each seam is a (module, attribute) pair that a caller inside qisac looks up at
call time, e.g. ``qisac.controller.run_em``; replacing that module attribute
with a timing wrapper records every call without touching the program.  Spans
are kept in memory as plain lists

    [name, start, end, parent, thread, trial, extra]

and handed back once, when the experiment ends.  ``parent`` is the index of
the enclosing span: the innermost open span on the same thread, or, for the
first span on a worker thread, the innermost open span of the thread that
started tracing (the only thread that submits trials).  ``trial`` is the
ordinal of the enclosing ``controller.run_qisac`` call.  A seam that no
longer exists is listed as untraced instead of raising.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

import numpy as np

# (module, attribute the caller binds, span name); the span name's first
# component is the layer the call belongs to.
SEAMS = (
    ("qisac.controller", "run_em", "em.run_em"),
    ("qisac.controller", "loglik", "em.loglik"),
    ("qisac.controller", "fisher_symbol", "analytics.fisher_symbol"),
    ("qisac.controller", "fc_max", "analytics.fc_max"),
    ("qisac.montecarlo", "sample_block", "physics.sample_block"),
    ("qisac.montecarlo", "run_qisac", "controller.run_qisac"),
    ("qisac.montecarlo", "fc_max", "analytics.fc_max"),
    ("qisac.montecarlo", "pareto_known_theta", "analytics.pareto_known_theta"),
    ("qisac.cli", "run_convergence_experiment", "montecarlo.run_convergence_experiment"),
    ("qisac.cli", "run_tradeoff_sweep", "montecarlo.run_tradeoff_sweep"),
    ("qisac.cli", "fisher_symbol", "analytics.fisher_symbol"),
    ("qisac.cli", "fisher_argmax", "analytics.fisher_argmax"),
    ("qisac.cli", "fc_max", "analytics.fc_max"),
    ("qisac.cli", "pareto_known_theta", "analytics.pareto_known_theta"),
)
ROOT = "cli.main"
NAME, START, END, PARENT, THREAD, TRIAL, EXTRA = range(7)


def _em_extra(res):
    return {"theta": float(res.theta_hat), "iterations": int(res.iterations),
            "converged": bool(res.converged), "flat": bool(res.flat_likelihood)}


def _fisher_extra(rep):
    return {"quad_nodes": int(rep.quad_nodes)}


def _trace_extra(trace):
    return {"theta": [float(v) for v in trace.theta_hat],
            "quad_failures": len(trace.quad_failures)}


# What a wrapper reads off a seam's return value; reading only observes.
_EXTRAS = {
    "em.run_em": _em_extra,
    "analytics.fisher_symbol": _fisher_extra,
    "controller.run_qisac": _trace_extra,
}


class Tracer:
    """Installs timing wrappers on the qisac seams and collects their spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.untraced: list[str] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._threads: dict[int, int] = {}
        self._origin = threading.get_ident()
        self._trials = 0

    def install(self) -> list[str]:
        """Wrap every seam that exists; return the ones that do not."""
        for mod_name, attr, span in SEAMS:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                self.untraced.append(f"{mod_name}.{attr}")
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.untraced.append(f"{mod_name}.{attr}")
                continue
            setattr(mod, attr, self.wrap(fn, span))
        return self.untraced

    def wrap(self, fn, name: str):
        extra_of = _EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if extra_of is not None:
                span[EXTRA] = extra_of(out)
            return out

        return traced

    def _open(self, name: str) -> list:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            thread = self._threads.setdefault(tid, len(self._threads))
            if stack:
                parent = stack[-1]
            else:
                origin = self._stacks.get(self._origin)
                parent = origin[-1] if origin else None
            if name == "controller.run_qisac":
                trial = self._trials
                self._trials += 1
            else:
                trial = self.spans[parent][TRIAL] if parent is not None else None
            span = [name, 0.0, 0.0, parent, thread, trial, None]
            stack.append(len(self.spans))
            self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        with self._lock:
            self._stacks[threading.get_ident()].pop()


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover (any thread)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return [s[END] - s[START] - _union(children.get(i, ()), s[START], s[END])
            for i, s in enumerate(spans)]


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, selfs):
        row = table.setdefault(s[NAME], {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += s[END] - s[START]
        row["self_s"] += own
    return table


def merged_table(experiments: list[dict]) -> dict[str, dict[str, float]]:
    """layer_table summed over experiments (span indices are per experiment)."""
    table: dict[str, dict[str, float]] = {}
    for e in experiments:
        for name, r in layer_table(e["spans"]).items():
            acc = table.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for f in acc:
                acc[f] += r[f]
    return table


def per_layer_metrics(experiments: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the traced experiments of one run.

    Each experiment dict carries ``spans``, ``cpu_s``, ``wall_s`` and
    ``threads``.  Counts and seconds are per experiment; a share divides a
    layer's self time by the summed self time of every span, i.e. by the
    busy thread-time of the experiments.
    """
    n_exp = max(1, len(experiments))
    table = merged_table(experiments)
    busy = sum(r["self_s"] for r in table.values()) or 1.0

    def row(name):
        return table.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    out: dict[str, float] = {}
    for name, fields in (
        ("physics.sample_block", ("calls", "us_per_call", "share")),
        ("em.run_em", ("calls", "us_per_call", "share")),
        ("em.loglik", ("calls", "us_per_call", "share")),
        ("analytics.fisher_symbol", ("calls", "us_per_call", "share")),
        ("analytics.fc_max", ("calls", "us_per_call")),
        ("analytics.fisher_argmax", ("calls", "us_per_call", "share")),
        ("analytics.pareto_known_theta", ("calls", "us_per_call", "share")),
    ):
        r = row(name)
        if "calls" in fields:
            out[f"{name}.calls"] = r["calls"] / n_exp
        if "us_per_call" in fields:
            out[f"{name}.us_per_call"] = 1e6 * r["incl_s"] / r["calls"] if r["calls"] else 0.0
        if "share" in fields:
            out[f"{name}.share"] = r["self_s"] / busy

    spans = [s for e in experiments for s in e["spans"]]
    ems = [s[EXTRA] for s in spans if s[NAME] == "em.run_em" and s[EXTRA]]
    k = max(1, len(ems))
    out["em.run_em.iterations_mean"] = sum(e["iterations"] for e in ems) / k
    out["em.run_em.converged_ratio"] = sum(e["converged"] for e in ems) / k
    out["em.run_em.flat_ratio"] = sum(e["flat"] for e in ems) / k
    nodes = [s[EXTRA]["quad_nodes"] for s in spans
             if s[NAME] == "analytics.fisher_symbol" and s[EXTRA]]
    out["analytics.fisher_symbol.quad_nodes_mean"] = sum(nodes) / len(nodes) if nodes else 0.0

    # one run_qisac span per trial; its children are the block-source calls
    # and the EM, scoring and Fisher calls of each outer iteration
    intervals, trial_s, flips, quad_fail, mc_self = [], [], 0, 0, 0.0
    for e in experiments:
        local = e["spans"]
        kids: dict[int, list[list]] = {}
        for s in local:
            if s[PARENT] is not None:
                kids.setdefault(s[PARENT], []).append(s)
        for i, s in enumerate(local):
            mine = sorted(kids.get(i, ()), key=lambda c: c[START])
            if s[NAME].startswith("montecarlo."):
                trials = [(c[START], c[END]) for c in mine if c[NAME] == "controller.run_qisac"]
                mc_self += s[END] - s[START] - _union(trials, s[START], s[END])
            if s[NAME] != "controller.run_qisac":
                continue
            trial_s.append(s[END] - s[START])
            starts = [c[START] for c in mine if c[NAME] == "physics.sample_block"]
            intervals += [1e3 * (b - a) for a, b in zip(starts, starts[1:])]
            if s[EXTRA]:
                em_theta = [c[EXTRA]["theta"] for c in mine
                            if c[NAME] == "em.run_em" and c[EXTRA]]
                flips += sum(a != b for a, b in zip(s[EXTRA]["theta"], em_theta))
                quad_fail += s[EXTRA]["quad_failures"]
    out["controller.run_qisac.calls"] = row("controller.run_qisac")["calls"] / n_exp
    out["controller.iter_ms_p50"] = _percentile(intervals, 50)
    out["controller.iter_ms_p95"] = _percentile(intervals, 95)
    out["controller.self_share"] = row("controller.run_qisac")["self_s"] / busy
    out["controller.reflect_flips"] = flips / n_exp
    out["controller.quad_failures"] = quad_fail / n_exp

    out["montecarlo.trial_s_p50"] = _percentile(trial_s, 50)
    out["montecarlo.trial_s_max"] = max(trial_s, default=0.0)
    out["montecarlo.cpu_util"] = (
        sum(e["cpu_s"] for e in experiments)
        / max(1e-12, sum(e["wall_s"] * e["threads"] for e in experiments)))
    # time montecarlo spends outside its trials: aggregation plus the
    # per-point fc_max / pareto_known_theta reference calls
    out["montecarlo.self_s"] = mc_self / n_exp
    out["cli.main.s"] = row(ROOT)["incl_s"] / max(1, row(ROOT)["calls"])
    out["cli.self_share"] = row(ROOT)["self_s"] / busy
    return out
