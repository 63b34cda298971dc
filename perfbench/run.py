"""quadratura benchmark: seeded closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N          # every workload, one process each

One caller in one process runs a workload as a closed loop: each operation
starts after the previous one returned.  Whole rounds run until ``--seconds``
have passed, and every result is checked against a closed-form reference
after its round.  Operations are timed one by one; the checks are not.

``--trace 0`` prints the end-to-end metrics: operations per second (median
over rounds), the median and 90th-percentile operation time, set-up time
(median of several fresh interpreters that import quadratura and
quadratura.cli and generate the first round) and peak RSS.  The failure
ratio is the result line's ``failed / attempted``; the lines before it give
it by name together with the failures by cause.

On a shared host the speed of identical work drifts by up to a quarter over
seconds to minutes, whatever the program does.  Fixed probes that do not
touch the package measure that speed: ``interp_probe`` (Python calls and
float arithmetic) and ``numpy_probe`` (large sampled arrays).  Each
workload names the probe whose drift its operations follow
(``Workload.probe``).  The probe runs between operations, a set share of
the run, and each operation's time is multiplied by the probe's reference
time (``PROBE_REF_S``) over the median of the probes run near it.  Every
set-up time is scaled likewise by interpreter probes taken just before and
after it.  Scaled times read as seconds on a machine where the probes take
their reference times; a change to the package moves the operations and
not the probes.  The raw timings and the probe's median are printed on the
lines before the result line.

``--trace 1`` runs a fixed number of rounds, each operation once with the
tracer installed and once without, alternating which goes first, and prints
the per-layer metrics of ``tracer.Tracer``: every count and time is per
operation, so counts repeat exactly for a seed.  It fails when a span its
workload should exercise was never recorded.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 7
# Median times of the speed probes on the reference machine, a 2-vCPU
# Intel Xeon virtual machine with Python 3.11 and numpy 2.4; only their
# size matters, as they turn the scaled timings into seconds.
PROBE_REF_S = {"interp": 0.002, "numpy": 0.02}
PROBE_SHARE = 0.15  # probe time as a share of operation time, in every round
# An operation is scaled by the probes from this long before it started to
# this long after it ended: the ones after the previous operation and after
# itself when operations are long, a few hundred when they are short.
PROBE_WINDOW_S = 1.0
SETUP_SPEED_PROBES = 10  # interpreter probes before and again after each set-up probe

# the package emits numpy warnings for overflowing hostile inputs
warnings.filterwarnings("ignore", category=RuntimeWarning)


def import_package():
    """Import quadratura from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "quadratura" / "__init__.py").is_file():
        sys.exit(f"error: no quadratura sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import quadratura

    if Path(quadratura.__file__).resolve().parent != SRC / "quadratura":
        sys.exit(f"error: quadratura imported from {quadratura.__file__}, not {SRC}")


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "QUADRATURA_THREADS": os.environ.get("QUADRATURA_THREADS"),
    }


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to ready-to-run."""
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        "import quadratura, quadratura.cli, workloads\n"
        f"workloads.WORKLOADS[{workload!r}].round({seed}, 0)\n"
        "print('ready', flush=True)\n"
    )
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            sys.exit("error: set-up probe failed")
    return elapsed


def _probe_term(x: float) -> float:
    return x * x - 0.5 * x + 1.0 / (1.0 + x)


def interp_probe() -> float:
    """Seconds of a fixed piece of interpreter work: calls and float arithmetic."""
    t0 = perf_counter()
    for i in range(8000):
        _probe_term(i * 1e-3)
    return perf_counter() - t0


_PROBE_T = np.linspace(0.5, 1.5, 1 << 18)


def numpy_probe() -> float:
    """Seconds of fixed bulk numpy work like the package's sampling.

    Fresh arrays of 2^18 samples of t*sin(1/t) and their minima and maxima
    over blocks of 64, four times.
    """
    t0 = perf_counter()
    for _ in range(4):
        y = _PROBE_T * np.sin(1.0 / _PROBE_T)
        blocks = y.reshape(-1, 64)
        blocks.min(axis=1)
        blocks.max(axis=1)
    return perf_counter() - t0


SPEED_PROBES = {"interp": interp_probe, "numpy": numpy_probe}


def scaled_setup(workload: str, seed: int) -> tuple[float, float]:
    """(scaled, raw) seconds of one set-up probe, scaled by interpreter probes."""
    probes = [interp_probe() for _ in range(SETUP_SPEED_PROBES)]
    raw = setup_probe(workload, seed)
    probes += [interp_probe() for _ in range(SETUP_SPEED_PROBES)]
    return raw * PROBE_REF_S["interp"] / statistics.median(probes), raw


class Tally:
    """Operation times and check outcomes of one run."""

    def __init__(self):
        self.times: list[float] = []
        self.causes: dict[str, int] = {}
        self.wrong = 0
        self.err_over_tol_max = 0.0

    def record(self, op, elapsed: float, result, exc) -> None:
        self.times.append(elapsed)
        cause, wrong, err = op.check(result, exc)
        if cause is not None:
            key = f"{op.label}: {cause}"
            self.causes[key] = self.causes.get(key, 0) + 1
        self.wrong += wrong
        if err is not None:
            self.err_over_tol_max = max(self.err_over_tol_max, err)

    @property
    def failed(self) -> int:
        return sum(self.causes.values())

    def result_line(self, metrics: dict) -> dict:
        return {
            "correct": self.wrong == 0,
            "attempted": len(self.times),
            "failed": self.failed,
            "metrics": metrics,
        }


def timed(call):
    """(seconds, result, exception) of one operation."""
    t0 = perf_counter()
    try:
        result, exc = call(), None
    except Exception as e:  # the harness boundary: record and keep running
        result, exc = None, e
    return perf_counter() - t0, result, exc


def run_end_to_end(wl, seed: int, seconds: float):
    """Whole rounds until ``seconds`` have passed, set-up probes spread among them.

    The workload's speed probe runs after each operation until probe time
    is ``PROBE_SHARE`` of the round's operation time.  Each operation's
    time is scaled by the probe's reference time over the median of the
    probes that ran within ``PROBE_WINDOW_S`` of it.  Operations per second
    is the median of the rounds' rates.  Returns the tally, the metrics,
    the raw metrics and the number of rounds.
    """
    probe = SPEED_PROBES[wl.probe]
    tally = Tally()
    setups: list[tuple[float, float]] = []
    ends: list[float] = []  # when each operation returned
    probe_at: list[float] = []  # when each probe ended, in order
    probe_s: list[float] = []
    rounds: list[int] = []  # index of each round's first operation
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        while len(setups) < SETUP_PROBES * (perf_counter() - start) / seconds:
            setups.append(scaled_setup(wl.name, seed))
        rounds.append(len(tally.times))
        round_probe_s = 0.0
        for op in wl.round(seed, len(rounds) - 1):
            tally.record(op, *timed(op.run))
            ends.append(perf_counter())
            while round_probe_s < PROBE_SHARE * sum(tally.times[rounds[-1]:]):
                probe_s.append(probe())
                probe_at.append(perf_counter())
                round_probe_s += probe_s[-1]
    while len(setups) < SETUP_PROBES:
        setups.append(scaled_setup(wl.name, seed))
    rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    scaled = []
    for raw_s, end in zip(tally.times, ends):
        lo = bisect.bisect_left(probe_at, end - raw_s - PROBE_WINDOW_S)
        hi = bisect.bisect_right(probe_at, end + PROBE_WINDOW_S)
        scaled.append(raw_s * PROBE_REF_S[wl.probe] / statistics.median(probe_s[lo:hi]))

    def timings(times, setup):
        bounds = list(zip(rounds, rounds[1:] + [len(times)]))
        return {
            "ops_per_s": (statistics.median((j - i) / sum(times[i:j]) for i, j in bounds), "1/s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": rss,
        }

    metrics = timings(scaled, statistics.median(s for s, _ in setups))
    raw = timings(tally.times, statistics.median(raw for _, raw in setups))
    raw["probe_s"] = (statistics.median(probe_s), "s")
    return tally, metrics, raw, len(rounds)


def run_traced(wl, seed: int, rounds: int):
    """Each operation once untraced and once traced; alternate the order."""
    from tracer import OP_SPAN, Tracer

    tracer = Tracer()
    tally = Tally()
    plain = traced_total = 0.0
    i = 0
    for r in range(rounds):
        for op in wl.round(seed, r):
            for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
                if traced_now:
                    with tracer:
                        elapsed, result, exc = timed(tracer.wrap(op.run, OP_SPAN))
                    traced_total += elapsed
                else:
                    elapsed, result, exc = timed(op.run)
                    plain += elapsed
                tally.record(op, elapsed, result, exc)
            i += 1
    return tracer, tally, i, traced_total / plain - 1.0, traced_total


def layer_metrics(tracer, ops: int, overhead: float, traced_wall: float, err_max: float) -> dict:
    """Per-layer metrics; counts and times are per operation."""
    t = tracer.totals

    def get(span, key):
        return t.get(span, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for span in ("expr.parse", "expr.differentiate", "expr.evaluate", "darboux.integrate",
                 "darboux.reduce", "darboux.cell_extremum", "darboux.partition_sum",
                 "partition", "approximant.build", "changevar.verify",
                 "changevar.hypotheses", "cli.improper"):
        m[f"{span}.calls"] = (get(span, "calls") / ops, "count/op")
        m[f"{span}.self_s"] = (get(span, "self_s") / ops, "s/op")
    for span in ("approximant.eval_pl", "approximant.integrate_pl", "bench.op"):
        m[f"{span}.self_s"] = (get(span, "self_s") / ops, "s/op")
    m["expr.evaluate.points"] = (get("expr.evaluate", "points") / ops, "count/op")
    m["expr.evaluate.undefined_points"] = (get("expr.evaluate", "undefined_points") / ops,
                                           "count/op")
    m["expr.evaluate.mpts_per_s"] = (
        ratio(get("expr.evaluate", "points"), get("expr.evaluate", "self_s")) / 1e6, "Mpts/s")
    swept = get("darboux.integrate", "cells_swept")
    m["darboux.levels"] = (get("darboux.integrate", "levels") / ops, "count/op")
    m["darboux.cells_swept"] = (swept / ops, "count/op")
    m["darboux.nonconverged"] = (get("darboux.integrate", "nonconverged") / ops, "count/op")
    m["darboux.ns_per_cell"] = (ratio(get("darboux.integrate", "self_s"), swept) * 1e9, "ns/cell")
    m["darboux.useful_cell_ratio"] = (ratio(get("darboux.integrate", "final_cells"), swept),
                                      "ratio")
    blocks = get("approximant.build", "blocks")
    m["approximant.blocks"] = (blocks / ops, "count/op")
    m["approximant.us_per_block"] = (ratio(get("approximant.build", "total_s"), blocks) * 1e6,
                                     "us/block")
    lhs = get("changevar.verify.lhs", "total_s")
    rhs = get("changevar.verify.rhs", "total_s")
    m["changevar.verify.inconclusive"] = (get("changevar.verify", "inconclusive") / ops,
                                          "count/op")
    m["changevar.verify.lhs_s"] = (lhs / ops, "s/op")
    m["changevar.verify.rhs_s"] = (rhs / ops, "s/op")
    m["changevar.verify.side_balance"] = (ratio(min(lhs, rhs), lhs + rhs), "ratio")
    m["changevar.hypotheses.points"] = (get("changevar.hypotheses", "points") / ops, "count/op")
    improper_swept = get("cli.improper", "cells_swept")
    m["cli.improper.steps"] = (get("cli.improper", "steps") / ops, "count/op")
    m["cli.improper.cells_swept"] = (improper_swept / ops, "count/op")
    m["cli.improper.useful_cell_ratio"] = (
        ratio(get("cli.improper", "final_cells"), improper_swept), "ratio")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    # the self times of all spans plus the tracer's own time, over the traced
    # operations' wall time: 1 when nothing is counted twice or left out
    accounted = sum(entry["self_s"] for entry in t.values()) + tracer.bookkeeping_s
    m["trace.accounted_ratio"] = (ratio(accounted, traced_wall), "ratio")
    m["check.err_over_tol_max"] = (err_max, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    wl = workloads.WORKLOADS[name]
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    print("env " + json.dumps(environment(seed)))
    if not trace:
        tally, metrics, raw, rounds = run_end_to_end(wl, seed, seconds)
        print(f"  {rounds} rounds, {len(tally.times)} operations")
        print(f"  {'metric':<14} {'scaled':>10} {'raw':>10}")
        for key, (value, unit) in metrics.items():
            print(f"  {key:<14} {value:10.6g} {raw[key][0]:10.6g} {unit}")
        print(f"  {wl.probe + '_probe_s':<14} {PROBE_REF_S[wl.probe]:10.6g} "
              f"{raw['probe_s'][0]:10.6g} s")
        print(f"  {'fail_ratio':<14} {tally.failed / len(tally.times):.6g} ratio")
        for cause, count in sorted(tally.causes.items()):
            print(f"  failed {count:>5}  {cause}")
        print(f"  worst error / tolerance {tally.err_over_tol_max:.3g}")
        result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        print(json.dumps(tally.result_line(result)))
        return 0

    tracer, tally, ops, overhead, traced_wall = run_traced(wl, seed, wl.trace_rounds)
    missing = [s for s in wl.spans if not tracer.totals.get(s, {}).get("calls")]
    if missing:
        print(f"error: spans never recorded on {name}: {', '.join(missing)}", file=sys.stderr)
        return 3
    metrics = layer_metrics(tracer, ops, overhead, traced_wall, tally.err_over_tol_max)
    for key, m in metrics.items():
        print(f"  {key:<34} {m['value']:.6g} {m['unit']}")
    print(json.dumps(tally.result_line(metrics)))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; its report, then one JSON summary."""
    import workloads

    rows = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"seed": seed, "workloads": rows}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("QUADRATURA_THREADS", None)  # the library's serial default
    import_package()
    import workloads

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
