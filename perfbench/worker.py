"""One pass of one workload, in a fresh process.

Builds the workload's inputs, reports when set-up is done, runs the timed
operations (traced or not), checks every output after its timer stops,
and prints one JSON report on its last line.  `run.py` starts it; it is
not meant to be called by hand, but can be:

    PYTHONPATH=src:perfbench python3 perfbench/worker.py --workload study --seed 1 \
        --root . --out .perfbench_tmp/manual
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


class Bench:
    """Times operations, collects their checks, and optionally traces them."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.ops: list[dict] = []
        self.notes: dict = {}

    def op(self, name, fn, *args, **kwargs):
        record = {"name": name, "s": 0.0, "errors": []}
        self.ops.append(record)
        try:
            if self.recorder is None:
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                record["s"] = time.perf_counter() - t0
            else:
                with self.recorder.span(f"bench.{name}") as span:
                    result = fn(*args, **kwargs)
                record["s"] = span.duration
        except Exception:
            record["errors"].append(traceback.format_exc(limit=4))
            raise
        return result

    def check(self, ok, message):
        """Record a failed output check against the latest operation."""
        if not ok:
            self.ops[-1]["errors"].append(message)

    def note(self, key, value):
        self.notes[key] = value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from workloads import WORKLOADS

    os.makedirs(args.out, exist_ok=True)
    setup, run = WORKLOADS[args.workload]
    inputs = setup(args.root, args.seed, args.out)
    report = {"ready": time.perf_counter()}
    if not args.setup_only:
        report.update(run_pass(run, inputs, args))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


def run_pass(run, inputs, args) -> dict:
    recorder = None
    if args.trace:
        from boundaries import summarize, targets
        from spans import SpanRecorder, patched

        recorder = SpanRecorder(run_id=f"{args.workload}-{args.seed}")
    bench = Bench(recorder)
    aborted = None
    try:
        if recorder is None:
            run(bench, inputs)
        else:
            with patched(recorder, targets()):
                run(bench, inputs)
    except Exception:
        aborted = traceback.format_exc(limit=4)
        if bench.ops and not bench.ops[-1]["errors"]:
            bench.ops[-1]["errors"].append(aborted)  # a check itself raised
    out = {"ops": bench.ops, "wall_s": sum(o["s"] for o in bench.ops), "aborted": aborted}
    if recorder is not None and aborted is None:
        out["layers"] = summarize(recorder.spans, bench.notes)
    return out


if __name__ == "__main__":
    sys.exit(main())
