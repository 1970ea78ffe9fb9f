"""Record the counts that repeat exactly, per workload and seed.

    python3 perfbench/baseline.py

Runs one traced cycle of every workload for the development and the
held-out seed and writes ``perfbench/baseline.json``: the inputs digest and
the exact operation counts of each, plus the machine they came from.  The
counts depend only on the code and the seed, so a change that claims to
remove work can be checked against them on any machine.
"""

import json
import os
import platform
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
OUT = os.path.join(HERE, "baseline.json")

DEV_SEED = 1
HELD_OUT_SEED = 2
EXACT_COUNTS = (
    "exact.lp_calls",
    "polyhedra.dd_calls",
    "toric.cover_tests",
    "laurent.mul_terms_out",
    "fixtures.build_calls",
)


def cpu_model():
    with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def traced(workload, seed):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE,
        text=True,
        timeout=600,
        check=True,
    )
    lines = done.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("inputs sha256"))
    metrics = json.loads(lines[-1])["metrics"]
    return {
        "inputs_sha256": digest,
        "counts": {name: metrics[name]["value"] for name in EXACT_COUNTS},
    }


def main():
    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "cpu_model": cpu_model(),
        },
        "seeds": {"development": DEV_SEED, "held_out": HELD_OUT_SEED},
        "workloads": {
            w: {str(s): traced(w, s) for s in (DEV_SEED, HELD_OUT_SEED)} for w in WORKLOADS
        },
    }
    with open(OUT, "w", encoding="ascii") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
