"""One experiment in a fresh interpreter: import qisac, write the inputs, run the CLI.

Usage: python3 perfbench/experiment.py JOB.json

The job names the qisac source directory, the config files to write, the
``qisac`` command lines to run through ``qisac.cli.main`` and whether to trace.
The result file records when set-up ended (``time.perf_counter``, a
system-wide monotonic clock, so the launcher can subtract its spawn time),
the wall time, CPU time and exit code of each command, peak RSS, trials
the program reported as failed, and the spans when traced.
"""

from __future__ import annotations

import json
import logging
import resource
import sys
import time


class _FailedTrials(logging.Handler):
    """Counts the per-trial failure warnings qisac.montecarlo logs."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("trial "):
            self.count += 1


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import qisac.cli

    for path, doc in job["configs"].items():
        with open(path, "w") as fh:
            json.dump(doc, fh)
    ready = time.perf_counter()

    failed = _FailedTrials()
    logging.getLogger("qisac.montecarlo").addHandler(failed)
    tracer = None
    entry = qisac.cli.main
    if job["trace"]:
        from tracer import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap(entry, ROOT)

    runs = []
    for argv in job["argv"]:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        code = entry(argv)
        runs.append({"code": code, "wall_s": time.perf_counter() - t0,
                     "cpu_s": _cpu_s() - cpu0})

    maxrss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "ready": ready,
        "runs": runs,
        "maxrss_mb": maxrss_kb / 1024.0,
        "failed_trials": failed.count,
        "spans": tracer.spans if tracer else [],
        "untraced": tracer.untraced if tracer else [],
    }
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
