"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload period-depth --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout: it imports ``fanoscaffold`` from
the checkout's ``src`` directory and nowhere else.  The workload runs as a
closed loop, one op at a time, over whole cycles of its op list until
``--seconds`` have passed.  Every op's output is checked exactly.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of one traced cycle,
measured after untraced cycles of the same ops.  The lines before it are a
readable report.  The exit code is 0 only when every check passed.

Speed normalisation.  The machines this runs on share cores with other
work; their speed switches between levels about 1.8x apart every few
seconds.  The benchmark times ``calibrate()``, a fixed piece of pure-Python
work that no library change touches, just before and just after each op
and every ``SAMPLE_INTERVAL_S`` while it runs.  The gated metrics scale an
op's wall time by ``CALIBRATION_REF_S`` over the mean of those readings, so
they read as times on a machine where ``calibrate()`` takes exactly
``CALIBRATION_REF_S``.  The raw wall-clock figures are printed beside them.
"""

import statistics
import time
from fractions import Fraction


def calibrate():
    """Time a fixed piece of pure-Python work that uses no library code.

    Sparse products of dicts keyed by exponent tuples and Fraction sums,
    the two kinds of work the library spends its time on.
    """
    clock = time.perf_counter
    t0 = clock()
    a = {(i, j): i - 2 * j for i in range(-6, 7) for j in range(-6, 7)}
    b = {(i, 1 - i): i + 3 for i in range(-5, 6)}
    for _ in range(2):
        acc = {}
        for (e1, e2), c in a.items():
            for (f1, f2), d in b.items():
                k = (e1 + f1, e2 + f2)
                acc[k] = acc.get(k, 0) + c * d
    q = Fraction(0)
    for i in range(1, 120):
        q += Fraction(i, i + 7) - Fraction(acc.get((i % 7, -i % 5), 1), 3)
    return clock() - t0


def speed_reading():
    """Median calibrate() time over a few back-to-back runs."""
    return statistics.median(calibrate() for _ in range(CALIBRATION_REPEATS))


# calibrate() time on the reference machine, and how many calibrations
# each speed reading takes the median of.
CALIBRATION_REF_S = 0.002
CALIBRATION_REPEATS = 3
# Interval of the extra readings taken while an op runs.
SAMPLE_INTERVAL_S = 0.1

SPEED_AT_START = speed_reading()
PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("period-depth", "quotient-roundtrip", "polytope-geometry", "cli-fixtures")

# Set-up is measured in this many fresh processes; the median is reported.
SETUP_SAMPLES = 3
# op_p90_ms needs at least ten samples beyond the 90th percentile.
P90_MIN_OPS = 100


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up, print the set-up time and exit",
    )
    return parser.parse_args(argv)


def import_library():
    """Put the checkout's src first on the path and import the workloads."""
    if not os.path.isfile(os.path.join(SRC, "fanoscaffold", "__init__.py")):
        raise SystemExit("perfbench: no fanoscaffold package under %s" % SRC)
    sys.path.insert(0, SRC)
    import fanoscaffold
    import workloads

    if os.path.dirname(os.path.abspath(fanoscaffold.__file__)) != os.path.join(
        SRC, "fanoscaffold"
    ):
        raise SystemExit("perfbench: fanoscaffold imported from outside %s" % SRC)
    return workloads


class Outcome:
    """Wall and normalised latencies and the failures of the ops run so far."""

    def __init__(self):
        self.latencies = []
        self.normalised = []
        self.calibrations = []
        self.cycle_walls = []
        self.failed = 0
        self.first_failure = None

    @property
    def attempted(self):
        return len(self.latencies)

    def record(self, latency, readings):
        """Keep an op's latency and its latency at reference speed."""
        self.latencies.append(latency)
        self.calibrations.extend(readings)
        self.normalised.append(latency * CALIBRATION_REF_S / statistics.fmean(readings))

    def fail(self, op, reason):
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = "%s: %s" % (op.label, reason)


class SpeedSampler:
    """calibrate() readings taken on a timer signal while ops run.

    An op of a second or more can straddle a change of machine speed; the
    readings taken during it follow that change.  The time the handler
    takes is summed so that it can be taken out of the op's latency.
    """

    def __init__(self):
        self.readings = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.readings.append(calibrate())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_cycle(ops, outcome, tracer=None):
    """Run every op once, timing each; returns the cycle's wall time.

    A traced cycle takes no readings during ops, so that no calibration
    time lands in a span.
    """
    clock = time.perf_counter
    start = clock()
    sampler = SpeedSampler()
    with sampler if tracer is None else contextlib.nullcontext():
        before = speed_reading()
        for op_id, op in enumerate(ops):
            if tracer is not None:
                tracer.op = op_id
            first, spent = len(sampler.readings), sampler.spent
            t0 = clock()
            try:
                out = op.run()
            except Exception as exc:  # an op must never raise: count it, go on
                out, error = None, exc
            else:
                error = None
            latency = clock() - t0 - (sampler.spent - spent)
            during = sampler.readings[first:]
            after = speed_reading()
            outcome.record(latency, [before, after] + during)
            before = after
            if error is not None:
                outcome.fail(op, "raised %r" % (error,))
                continue
            try:
                good = op.check(out)
            except Exception as exc:
                good = False
                outcome.fail(op, "check raised %r" % (exc,))
            else:
                if not good:
                    outcome.fail(op, "output differs from the reference")
    wall = clock() - start
    outcome.cycle_walls.append(wall)
    return wall


def run_for(ops, seconds, outcome):
    """Whole cycles until `seconds` have passed."""
    start = time.perf_counter()
    while True:
        run_cycle(ops, outcome)
        if time.perf_counter() - start >= seconds:
            return


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def setup_time(started, readings, spent):
    """(wall, normalised) set-up seconds from `started` until now.

    `readings` are the calibrations taken since `started`, which took
    `spent` seconds of it.
    """
    wall = time.perf_counter() - started - spent
    speed = statistics.fmean(readings + [speed_reading()])
    return wall, wall * CALIBRATION_REF_S / speed


def setup_samples(args, first):
    """The set-up times of this process and of fresh child processes."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
                "--setup-only",
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=120,
            check=True,
            text=True,
        )
        samples.append(tuple(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_report(workload, setup, outcome):
    lat = outcome.latencies
    norm = outcome.normalised
    n = outcome.attempted
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_wall = statistics.median(s[0] for s in setup)
    setup_norm = statistics.median(s[1] for s in setup)
    metrics = {
        "norm_ops_per_s": metric(n / sum(norm), "1/s"),
        "norm_op_p50_ms": metric(statistics.median(norm) * 1000.0, "ms"),
        "setup_s": metric(setup_norm, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    if n >= P90_MIN_OPS:
        p90 = "%10.3f ms   %10.3f ms" % (
            percentile(lat, 0.9) * 1000.0,
            percentile(norm, 0.9) * 1000.0,
        )
    else:
        p90 = "n/a (needs %d ops)" % P90_MIN_OPS
    lines = [
        "%d ops in %d cycles of %d; %.3f s inside ops"
        % (n, len(outcome.cycle_walls), len(workload.ops), sum(lat)),
        "                    wall            normalised",
        "ops_per_s    %10.4f 1/s  %10.4f 1/s" % (n / sum(lat), n / sum(norm)),
        "op_p50_ms    %10.3f ms   %10.3f ms    (%d samples)"
        % (statistics.median(lat) * 1000.0, statistics.median(norm) * 1000.0, n),
        "op_p90_ms    %s    (%d samples)" % (p90, n),
        "fail_ratio   %10.4f      (%d failed of %d attempted)"
        % (outcome.failed / n, outcome.failed, n),
        "setup_s      %10.4f s    %10.4f s     (median of %d processes)"
        % (setup_wall, setup_norm, len(setup)),
        "peak_rss_mb  %10.2f MB" % rss_mb,
        "calibrate()  median %.4f ms, reference %.4f ms"
        % (statistics.median(outcome.calibrations) * 1000.0, CALIBRATION_REF_S * 1000.0),
    ]
    return metrics, lines


# Inclusive times whose share of the traced cycle the report prints.
SHARES = (
    ("laurent.period_s",),
    ("exact.lp_s", "polyhedra.dd_s"),
    ("fixtures.build_s",),
    ("polyhedra.self_s",),
)


def traced_report(tracer, outcome, cycle_ops):
    """Per-layer metrics of the last (traced) cycle of `outcome`.

    The overhead ratio compares normalised op time of the traced cycle with
    the median of the untraced cycles before it, so that a change of
    machine speed between the two does not pass for tracing cost.
    """
    norm = outcome.normalised
    per_cycle = [sum(norm[i : i + cycle_ops]) for i in range(0, len(norm), cycle_ops)]
    untraced, traced = statistics.median(per_cycle[:-1]), per_cycle[-1]
    traced_op_s = sum(outcome.latencies[-cycle_ops:])
    values = tracer.metrics(untraced, traced)
    metrics = {name: metric(v, unit) for name, (v, unit) in sorted(values.items())}
    lines = [
        "normalised op time: untraced cycle %.4f s, traced cycle %.4f s" % (untraced, traced),
        "traced cycle: %.4f s wall inside ops" % traced_op_s,
    ]
    lines += [
        "%-34s %16s %s" % (name, ("%.6f" % m["value"]).rstrip("0").rstrip("."), m["unit"])
        for name, m in metrics.items()
    ]
    for names in SHARES:
        share = sum(values[n][0] for n in names) / traced_op_s
        lines.append("share of traced op time: %s = %.1f %%" % (" + ".join(names), 100 * share))
    lines.append("unwrapped helpers: " + ", ".join(tracing.UNWRAPPED))
    return metrics, lines


def main(argv):
    args = parse_args(argv)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        with SpeedSampler() as sampler:
            workloads = import_library()
            workload = workloads.build(args.workload, args.seed, workdir)
        setup = setup_time(PROCESS_START, [SPEED_AT_START] + sampler.readings, sampler.spent)
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        outcome = Outcome()
        if args.trace:
            run_for(workload.ops, args.seconds / 2.0, outcome)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                run_cycle(workload.ops, outcome, tracer)
            finally:
                tracer.uninstall()
            metrics, lines = traced_report(tracer, outcome, len(workload.ops))
        else:
            run_for(workload.ops, args.seconds, outcome)
            metrics, lines = untraced_report(workload, setup_samples(args, setup), outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    print("inputs sha256 %s" % workload.digest)
    for line in lines:
        print("  " + line)
    if outcome.failed:
        print("FAILED: %s" % outcome.first_failure)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
