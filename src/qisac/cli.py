"""Command-line front end: analytics tables, convergence runs, trade-off sweeps.

Configuration files are single JSON documents with three sections::

    {
      "channel":    {"E": 10, "eta": 0.8, "Na": 3, "theta_deg": 45},
      "algo":       {"gamma_frac": 0.6, "lambda": 0.01, "eps": 1e-3,
                     "t_max": 500, "l_max": 500, "psi0_deg": 0,
                     "block_refresh": true},
      "experiment": {"n_block": 1000, "trials": 50, "seed": 1},
      "sweep":      [[0.1, 3, 5000], ...]          // sweep command only
    }

Each section is read against one table of key -> (reader, default):
``_CHANNEL``, ``_ALGO`` and the experiment table in :func:`parse_config`.
A key its table does not list is a configuration error in every section.
The channel keys and ``n_block`` are required.  The algo values above other
than ``gamma_frac`` are the defaults, and ``trials`` defaults to 50 for
``run`` and 200 for ``sweep``.  ``"seed": null`` means the file gives no
seed, the same as leaving the key out.

Exactly one of ``gamma_frac`` (fraction of the achievable Fisher maximum) or
``gamma_abs`` (absolute block Fisher) must be present.  All angles in files
and flags are degrees; the library works in radians internally.  ``eps`` is
the shared tolerance of the outer and EM updates; ``eps: 0``
disables outer early stopping (the run always lasts t_max iterations)
and leaves the EM tolerance at the default.

Outputs are CSV (header row, LF line endings, 17-significant-digit floats)
plus a JSON summary embedding the resolved config and package version.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
The master seed is taken from --seed, else the config, else the QISAC_SEED
environment variable, else 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import fc_max, fisher_argmax, offset_table, pareto_known_theta
from .controller import AlgoConfig
from .em import EmConfig
from .errors import ConfigError, QisacError
from .montecarlo import (
    ExperimentSpec,
    median,
    run_convergence_experiment,
    run_tradeoff_sweep,
    steady_mean,
    steady_psi,
)
from .physics import ChannelParams


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write a header and rows as CSV: floats to 17 significant digits, other values by str().

    The values are numbers and plain words (the ``com``/``sen`` target),
    none of which CSV quotes, so each row is one template, made once per
    sequence of value types, filled in one step; the file is written in
    one call.
    """
    templates = {}
    lines = [",".join(header) + "\n"]
    for row in rows:
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(
                "%.17g" if issubclass(k, float) else "%s" for k in kinds) + "\n"
        lines.append(template % tuple(row))
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _as_int(value, where: str) -> int:
    """An integral JSON number (2 or 2.0); 2.5, strings and booleans are rejected."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _as_float(value, where: str) -> float:
    """A finite JSON number (2 or 2.5); strings, booleans, null, NaN and infinities are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:           # an integer literal beyond the double range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return x


def _as_bool(value, where: str) -> bool:
    """JSON true or false; 0, 1 and strings are rejected."""
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def _as_seed(value, where: str) -> int | None:
    """An integer, or null for "no seed in the file"."""
    return None if value is None else _as_int(value, where)


_REQUIRED = object()    # the table default of a key that every file must give

# key -> (reader, default), in the order the echo lists them
_CHANNEL = {key: (_as_float, _REQUIRED) for key in ("E", "eta", "Na", "theta_deg")}
_ALGO = {                # besides exactly one of gamma_frac / gamma_abs
    "lambda": (_as_float, 0.01),
    "eps": (_as_float, 1e-3),
    "t_max": (_as_int, 500),
    "l_max": (_as_int, 500),
    "psi0_deg": (_as_float, 0.0),
    "block_refresh": (_as_bool, True),
}


def _read(section: dict, keys: dict, where: str) -> dict:
    """Every key of the table ``keys`` read from ``section``, defaults filled, in table order.

    A key the table does not list, or a required key the section lacks, is a
    :class:`ConfigError`.
    """
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    for key, (_, default) in keys.items():
        if default is _REQUIRED and key not in section:
            raise ConfigError(f"missing required key {where}.{key}")
    return {key: reader(section.get(key, default), f"{where}.{key}")
            for key, (reader, default) in keys.items()}


def parse_config(doc: dict, command: str) -> tuple[ExperimentSpec, dict, bool]:
    """Validate a config document and build the experiment description.

    Returns the spec, a normalized echo document (defaults filled, angles
    still in degrees) that re-parses to an identical spec, and whether the
    file itself carried a seed (the echo always lists one).
    """
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    for section in ("channel", "algo", "experiment"):
        if section not in doc or not isinstance(doc[section], dict):
            raise ConfigError(f"missing or invalid section {section!r}")
    unknown = set(doc) - {"channel", "algo", "experiment", "sweep"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")

    ch = _read(doc["channel"], _CHANNEL, "channel")
    try:
        params = ChannelParams(E=ch["E"], eta=ch["eta"], Na=ch["Na"],
                               theta=math.radians(ch["theta_deg"]))
    except ValueError as err:
        raise ConfigError(f"invalid channel parameters: {err}") from err

    al = dict(doc["algo"])
    has_frac = "gamma_frac" in al
    if has_frac == ("gamma_abs" in al):
        raise ConfigError("exactly one of algo.gamma_frac / algo.gamma_abs is required")
    gamma_key = "gamma_frac" if has_frac else "gamma_abs"
    gamma = _as_float(al.pop(gamma_key), f"algo.{gamma_key}")
    al = _read(al, _ALGO, "algo")
    # the outer loop accepts 0 (= no early stop); the inner updates need a
    # positive tolerance, so they fall back to the default in that case
    inner_eps = al["eps"] if al["eps"] > 0 else _ALGO["eps"][1]
    try:
        algo = AlgoConfig(
            gamma_min=gamma,
            lam=al["lambda"],
            eps=al["eps"],
            t_max=al["t_max"],
            em=EmConfig(eps=inner_eps, l_max=al["l_max"]),
            psi0=math.radians(al["psi0_deg"]),
            gamma_relative=has_frac,
            block_refresh=al["block_refresh"],
        )
    except ValueError as err:
        raise ConfigError(f"invalid algo parameters: {err}") from err

    ex = _read(doc["experiment"], {
        "n_block": (_as_int, _REQUIRED),
        "trials": (_as_int, 200 if command == "sweep" else 50),
        "seed": (_as_seed, None),
    }, "experiment")
    sweep = None
    if "sweep" in doc:
        raw = doc["sweep"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("sweep must be a non-empty list of [gamma_frac, Na, N]")
        try:
            sweep = tuple(
                (_as_float(g, "sweep gamma_frac"), _as_float(na, "sweep Na"),
                 _as_int(n, "sweep N"))
                for g, na, n in raw
            )
        except (TypeError, ValueError) as err:
            raise ConfigError(f"malformed sweep entry: {err}") from err
    elif command == "sweep":
        raise ConfigError("sweep command requires a sweep section")

    had_seed = ex["seed"] is not None
    try:
        spec = ExperimentSpec(params=params, algo=algo, n_block=ex["n_block"],
                              trials=ex["trials"], seed=ex["seed"] if had_seed else 0,
                              sweep=sweep)
    except ValueError as err:
        raise ConfigError(f"invalid experiment parameters: {err}") from err

    # the echo lists the angles the library runs with, back in degrees
    ch["theta_deg"] = math.degrees(params.theta)
    al["psi0_deg"] = math.degrees(algo.psi0)
    echo = {"channel": ch, "algo": {gamma_key: gamma, **al},
            "experiment": {**ex, "seed": spec.seed}}
    if sweep is not None:
        echo["sweep"] = [[g, na, n] for g, na, n in sweep]
    return spec, echo, had_seed


def _resolve_seed(flag_seed, spec_seed, config_had_seed: bool):
    """--seed flag beats the config; QISAC_SEED is the fallback; else 0."""
    if flag_seed is not None:
        return int(flag_seed)
    if config_had_seed:
        return spec_seed
    env = os.environ.get("QISAC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as err:
            raise ConfigError(f"QISAC_SEED must be an integer, got {env!r}") from err
    return 0


def _prepare(args, command: str) -> tuple[ExperimentSpec, dict, Path]:
    """Load the config, settle the master seed (the echo's too) and make --out-dir."""
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {args.config}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {args.config} is not valid JSON: {err}") from err
    spec, echo, had_seed = parse_config(doc, command)
    seed = _resolve_seed(args.seed, spec.seed, had_seed)
    echo["experiment"]["seed"] = seed
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return replace(spec, seed=seed), echo, out


def cmd_analytics(args) -> int:
    try:
        params = ChannelParams(E=args.E, eta=args.eta, Na=args.Na, theta=0.0)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    if args.grid < 2:
        raise ConfigError("--grid must be >= 2")
    if args.n < 1 or args.pareto_points < 1:
        raise ConfigError("--n and --pareto-points must be >= 1")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # offset phi on the theta = 0 channel is the LO phase -phi (0 - (-phi) == phi exactly)
    phi_deg = np.linspace(0.0, 180.0, args.grid).tolist()
    ber, fisher, high_snr = offset_table(params, [-math.radians(pd) for pd in phi_deg])
    _write_csv(out / "analytics_grid.csv",
               ["phi_deg", "ber_theory", "fisher", "fisher_high_snr"],
               zip(phi_deg, ber.tolist(), fisher.tolist(), high_snr.tolist()))

    phi_star, f_peak = fisher_argmax(params)
    fcm = fc_max(params, args.n)
    a2s2 = params.amplitude() ** 2 / params.noise_var()
    _write_json(out / "analytics_fcmax.json", {
        "version": __version__,
        "channel": {"E": params.E, "eta": params.eta, "Na": params.Na},
        "n": args.n,
        "fc_max": fcm,
        "fisher_peak_per_symbol": f_peak,
        "phi_argmax_deg": math.degrees(phi_star),
        "upper_bound_n_a2_over_sigma2": args.n * a2s2,
    })

    prows = []
    for gf in np.linspace(0.0, 1.0, args.pareto_points):
        pt = pareto_known_theta(params, args.n, gf * fcm)
        prows.append((float(gf), pt.gamma_min, math.degrees(pt.phi_star), pt.ber))
    _write_csv(out / "analytics_pareto.csv",
               ["gamma_frac", "gamma_min", "phi_star_deg", "ber"], prows)
    print(f"analytics written to {out} (grid={args.grid}, n={args.n})")
    return 0


def cmd_run(args) -> int:
    spec, echo, out = _prepare(args, "run")

    result = run_convergence_experiment(spec)

    rows = chain.from_iterable(zip(
        range(len(tr)), repeat(k),
        map(math.degrees, tr.theta_hat.tolist()),
        map(math.degrees, tr.psi.tolist()),
        tr.fc.tolist(),
        repeat(tr.fc_max),
        tr.ber_emp.tolist(),
        tr.ber_theory.tolist(),
        tr.target,
        tr.reflect_margin.tolist(),
        tr.reflection_adopted.astype(int).tolist(),
    ) for k, tr in enumerate(result.traces))
    _write_csv(out / "run_trace.csv",
               ["iter", "trial", "theta_hat_deg", "psi_deg", "fc", "fc_max",
                "ber_emp", "ber_theory", "target", "reflect_margin",
                "reflection_adopted"], rows)

    psis = [steady_psi(tr) for tr in result.traces]
    th_err = [steady_mean(np.degrees(np.abs(
        np.minimum((tr.theta_hat - tr.theta_true) % np.pi,
                   (tr.theta_true - tr.theta_hat) % np.pi))), len(tr))
        for tr in result.traces]
    fcs = [steady_mean(tr.fc, len(tr)) for tr in result.traces]
    bers = [steady_mean(tr.ber_emp, len(tr)) for tr in result.traces]
    gamma = result.traces[0].gamma_min
    summary = {
        "version": __version__,
        "master_seed": spec.seed,
        "config": echo,
        "trials_ok": len(result.traces),
        "trials_failed": [{"trial": i, "error": msg} for i, msg in result.failures],
        "fc_max": result.traces[0].fc_max,
        "gamma_min": gamma,
        "steady": {
            "psi_deg_median": float(median([math.degrees(p) for p in psis])),
            "psi_deg_per_trial": [math.degrees(p) for p in psis],
            "theta_err_deg_median": float(median(th_err)),
            "fc_median": float(median(fcs)),
            "fc_over_gamma_median": float(median(fcs) / gamma) if gamma > 0 else None,
            "ber_emp_mean": float(np.mean(bers)),
        },
        "iterations_per_trial": [len(tr) for tr in result.traces],
        "reflection_flips_per_trial": [int(tr.reflection_adopted.sum())
                                       for tr in result.traces],
    }
    _write_json(out / "run_summary.json", summary)
    print(f"run complete: {len(result.traces)}/{spec.trials} trials ok, "
          f"median steady psi = {summary['steady']['psi_deg_median']:.2f} deg")
    return 0


def cmd_sweep(args) -> int:
    spec, echo, out = _prepare(args, "sweep")

    curve = run_tradeoff_sweep(spec)
    rows = [(p.gamma_frac, p.na, p.n, p.ber_sim, p.ber_stderr, p.ber_theory)
            for p in curve.points]
    _write_csv(out / "sweep_results.csv",
               ["gamma_frac", "Na", "N", "ber_sim", "ber_stderr",
                "ber_theory_known_theta"], rows)
    _write_json(out / "sweep_summary.json", {
        "version": __version__,
        "master_seed": spec.seed,
        "config": echo,
        "trials_per_point": curve.trials,
        "points": [{
            "gamma_frac": p.gamma_frac, "Na": p.na, "N": p.n,
            "ber_sim": p.ber_sim, "ber_stderr": p.ber_stderr,
            "ber_theory_known_theta": p.ber_theory,
            "phi_star_deg": math.degrees(p.phi_star) if np.isfinite(p.phi_star) else None,
            "feasible": p.feasible,
        } for p in curve.points],
    })
    print(f"sweep complete: {len(curve.points)} points")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qisac",
        description="BPSK homodyne sensing/communication simulator",
    )
    ap.add_argument("--seed", type=int, default=None,
                    help="master seed override (beats config and QISAC_SEED)")
    ap.add_argument("--out-dir", default=".", help="directory for output files")
    ap.add_argument("--threads", type=int, default=1,
                    help="trials run serially; only 1 is accepted (kept so old commands parse)")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analytics", help="closed-form tables on a phase-offset grid")
    pa.add_argument("--E", type=float, default=10.0, help="mean photon number")
    pa.add_argument("--eta", type=float, default=0.8, help="transmissivity")
    pa.add_argument("--Na", type=float, default=3.0, help="thermal photon number")
    pa.add_argument("--grid", type=int, default=181, help="grid points over [0, 180] deg")
    pa.add_argument("--n", type=int, default=1000, help="block length for block-level outputs")
    pa.add_argument("--pareto-points", type=int, default=21,
                    help="points on the known-theta trade-off curve")
    pa.set_defaults(func=cmd_analytics)

    pr = sub.add_parser("run", help="convergence experiment from a config file")
    pr.add_argument("config", help="JSON config path")
    pr.set_defaults(func=cmd_run)

    ps = sub.add_parser("sweep", help="trade-off sweep from a config file")
    ps.add_argument("config", help="JSON config path (requires sweep section)")
    ps.set_defaults(func=cmd_sweep)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.threads != 1:
            raise ConfigError(f"--threads accepts only 1 (trials run serially), got {args.threads}")
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except QisacError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
