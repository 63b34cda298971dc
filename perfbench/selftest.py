"""Self-test of the traced run: counts repeat exactly and every span fires.

    python3 perfbench/selftest.py [--seed N]

For each workload, traces its first round twice with one seed.  The counts
that do not depend on the machine (points evaluated, cells swept,
refinement levels, truncation steps, approximant blocks, calls) must be
identical between the two passes, every span the workload is meant to
exercise must have been recorded, and the tracer must have put back every
name it wrapped.  Exits 1 on the first failure.
"""

from __future__ import annotations

import argparse
import sys

from run import import_package, timed

TIMES = ("self_s", "total_s")


def traced_counts(wl, seed: int):
    from tracer import OP_SPAN, Tracer

    tracer = Tracer()
    for op in wl.round(seed, 0):
        with tracer:
            timed(tracer.wrap(op.run, OP_SPAN))
    counts = {
        span: {k: v for k, v in entry.items() if k not in TIMES}
        for span, entry in tracer.totals.items()
    }
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    import_package()
    import tracer
    import workloads

    originals = [getattr(module, attr) for module, attr, _, _ in tracer.PATCHES]
    for name, wl in workloads.WORKLOADS.items():
        first = traced_counts(wl, args.seed)
        second = traced_counts(wl, args.seed)
        if first != second:
            diff = {s: (first.get(s), second.get(s)) for s in first.keys() | second.keys()
                    if first.get(s) != second.get(s)}
            print(f"FAIL {name}: counts differ between two passes: {diff}")
            return 1
        missing = [s for s in wl.spans if not first.get(s, {}).get("calls")]
        if missing:
            print(f"FAIL {name}: spans never recorded: {', '.join(missing)}")
            return 1
        restored = [getattr(module, attr) for module, attr, _, _ in tracer.PATCHES]
        if restored != originals:
            print(f"FAIL {name}: the tracer left wrapped names behind")
            return 1
        key_counts = {
            "expr.evaluate.points": first.get("expr.evaluate", {}).get("points", 0),
            "darboux.cells_swept": first.get("darboux.integrate", {}).get("cells_swept", 0),
            "darboux.levels": first.get("darboux.integrate", {}).get("levels", 0),
            "cli.improper.steps": first.get("cli.improper", {}).get("steps", 0),
            "approximant.blocks": first.get("approximant.build", {}).get("blocks", 0),
        }
        print(f"ok   {name}: {len(wl.spans)} spans recorded, counts repeat: {key_counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
