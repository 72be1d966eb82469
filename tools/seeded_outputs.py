"""SHA-256 of every seeded output file of the shipped configs, with the numpy and Python versions.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/seeded_outputs.py --out change.json
    PYTHONPATH=<other tree>/src python3 tools/seeded_outputs.py --out parent.json
    diff parent.json change.json

It runs ``qisac.cli.main`` in this process, with ``QISAC_SEED`` unset and
into a temporary directory, on:

- ``run`` on ``configs/convergence_theta45.json`` and
  ``configs/convergence_theta60.json``,
- ``sweep`` on ``configs/tradeoff_theta30.json``,
- ``analytics`` with its defaults,

and writes the digest of each file they write, keyed by
``<command>_<config>/<file>`` (``analytics/<file>`` for analytics).  Every
run takes the seed its config gives, so two trees that compute the same
numbers write the same digests.  Results are bit-identical only within one
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


def digests(trials: int | None = None, t_max: int | None = None) -> dict[str, str]:
    """The SHA-256 of each output file of each command, keyed ``<label>/<file>``."""
    saved = os.environ.pop("QISAC_SEED", None)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            commands = {"analytics": ["analytics"]}
            for command, name in RUNS:
                doc = json.loads((CONFIGS / name).read_text())
                if trials is not None:
                    doc["experiment"]["trials"] = trials
                if t_max is not None:
                    doc["algo"]["t_max"] = t_max
                cfg = tmp / name
                cfg.write_text(json.dumps(doc))
                commands[f"{command}_{cfg.stem}"] = [command, str(cfg)]
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


def main(argv: list[str] | None = None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    ap.add_argument("--trials", type=int, default=None, help="trials in every config")
    ap.add_argument("--t-max", type=int, default=None, help="t_max in every config")
    args = ap.parse_args(argv)
    doc = {
        "qisac": qisac.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "trials": args.trials,
        "t_max": args.t_max,
        "sha256": digests(args.trials, args.t_max),
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for name, digest in doc["sha256"].items():
        print(f"{digest}  {name}")
    return doc


if __name__ == "__main__":
    main()
