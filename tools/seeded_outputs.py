"""SHA-256 of every seeded output file of the shipped configs, with the numpy and Python versions.

Usage, from the repository root:

    PYTHONPATH=<other tree>/src python3 tools/seeded_outputs.py --out parent.json
    PYTHONPATH=src python3 tools/seeded_outputs.py --check parent.json

It runs ``qisac.cli.main`` in this process, with ``QISAC_SEED`` unset and
into a temporary directory, on:

- ``run`` on ``configs/convergence_theta45.json`` and
  ``configs/convergence_theta60.json``,
- ``sweep`` on ``configs/tradeoff_theta30.json``,
- ``sweep`` in the shape of the benchmark's ``sweep_n50k`` workload
  (``SWEEP_N50K``: N = 50000, gamma fractions 0.1 / 0.5 / 0.9, 2 trials,
  t_max 20, seed 2001), the only one whose sweep points share block draws at
  a large N,
- ``sweep`` on ``SWEEP_SPLIT`` (N = 2000, one Na, gamma fractions 0 / 0.005
  / 0.4 / 0.8, eps 0.05, 3 trials, t_max 60, seed 2002), whose points part
  from one another at different iterations and whose trials stop early at
  different iterations, unlike the shipped sweeps (eps = 0),
- ``analytics`` with its defaults,

and writes the digest of each file they write, keyed by
``<command>_<config>/<file>`` (``sweep_n50k/<file>``, ``sweep_split/<file>``
and ``analytics/<file>`` for the last three).  Every run takes the seed its config
gives, so two trees that compute the same numbers write the same digests.
``--check FILE`` compares the digests with those FILE holds, lists every key
whose digest differs (or that only one side has) and exits with status 1 if
there is one.  Results are bit-identical only within one
numpy version (see README, "Command line"), so the Python and numpy versions
are written beside the digests.

``--trials`` and ``--t-max`` replace those keys in every config, for a quick
check.  The values used are written too; digests made at different sizes
are not comparable.  The qisac package digested is the one Python imports,
so ``PYTHONPATH`` picks the tree; the configs are always this checkout's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

import qisac
from qisac import cli

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
RUNS = (
    ("run", "convergence_theta45.json"),
    ("run", "convergence_theta60.json"),
    ("sweep", "tradeoff_theta30.json"),
)
SWEEP_N50K = {
    "channel": {"E": 10, "eta": 0.8, "Na": 3, "theta_deg": 30},
    "algo": {"gamma_frac": 0.0, "lambda": 0.015, "eps": 0.0, "t_max": 20, "psi0_deg": 90},
    "experiment": {"n_block": 50000, "trials": 2, "seed": 2001},
    "sweep": [[0.1, 3, 50000], [0.5, 3, 50000], [0.9, 3, 50000]],
}
SWEEP_SPLIT = {
    "channel": {"E": 10, "eta": 0.8, "Na": 3, "theta_deg": 30},
    "algo": {"gamma_frac": 0.0, "lambda": 0.2, "eps": 0.05, "t_max": 60, "psi0_deg": 90},
    "experiment": {"n_block": 2000, "trials": 3, "seed": 2002},
    "sweep": [[0.0, 3, 2000], [0.005, 3, 2000], [0.4, 3, 2000], [0.8, 3, 2000]],
}


def digests(trials: int | None = None, t_max: int | None = None) -> dict[str, str]:
    """The SHA-256 of each output file of each command, keyed ``<label>/<file>``."""
    saved = os.environ.pop("QISAC_SEED", None)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            commands = {"analytics": ["analytics"]}
            docs = [(f"{command}_{Path(name).stem}", command,
                     json.loads((CONFIGS / name).read_text())) for command, name in RUNS]
            for label, doc in (("sweep_n50k", SWEEP_N50K), ("sweep_split", SWEEP_SPLIT)):
                docs.append((label, "sweep", json.loads(json.dumps(doc))))
            for label, command, doc in docs:
                if trials is not None:
                    doc["experiment"]["trials"] = trials
                if t_max is not None:
                    doc["algo"]["t_max"] = t_max
                cfg = tmp / f"{label}.json"
                cfg.write_text(json.dumps(doc))
                commands[label] = [command, str(cfg)]
            out = {}
            for label, argv in commands.items():
                out_dir = tmp / "out" / label
                rc = cli.main(["--out-dir", str(out_dir), *argv])
                if rc != 0:
                    raise RuntimeError(f"qisac {argv[0]} ({label}) exited with {rc}")
                for path in sorted(out_dir.iterdir()):
                    out[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
            return out
    finally:
        if saved is not None:
            os.environ["QISAC_SEED"] = saved


def differing(got: dict[str, str], ref: dict[str, str]) -> list[str]:
    """The keys whose digest differs between ``got`` and ``ref``, or that only one has."""
    return sorted(k for k in got.keys() | ref.keys() if got.get(k) != ref.get(k))


def main(argv: list[str] | None = None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=None, help="JSON file to write")
    ap.add_argument("--check", type=Path, default=None,
                    help="JSON file of this tool to compare with; exit 1 on any difference")
    ap.add_argument("--trials", type=int, default=None, help="trials in every config")
    ap.add_argument("--t-max", type=int, default=None, help="t_max in every config")
    args = ap.parse_args(argv)
    if args.out is None and args.check is None:
        ap.error("give --out, --check or both")
    ref = None
    if args.check is not None:
        ref = json.loads(args.check.read_text())
        if (ref["trials"], ref["t_max"]) != (args.trials, args.t_max):
            ap.error(f"{args.check} was made with --trials {ref['trials']} --t-max "
                     f"{ref['t_max']}; digests of other sizes are not comparable")
    doc = {
        "qisac": qisac.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "trials": args.trials,
        "t_max": args.t_max,
        "sha256": digests(args.trials, args.t_max),
    }
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for name, digest in doc["sha256"].items():
        print(f"{digest}  {name}")
    if ref is not None:
        diff = differing(doc["sha256"], ref["sha256"])
        for key in diff:
            print(f"differs from {args.check}: {key}")
        if diff:
            sys.exit(1)
        print(f"all {len(doc['sha256'])} digests match {args.check}")
    return doc


if __name__ == "__main__":
    main()
