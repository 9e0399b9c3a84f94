"""impactlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {study,certify,limit_side} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (the directory holding src/ and
configs/).  Every pass runs in a fresh worker process with its own output
directory under .perfbench_tmp/, so the results store, its lock file and
peak memory never carry over.  Passes repeat until S seconds have passed.

--trace 0 reports the end-to-end metrics: wall_s (median pass time over
the timed operations), setup_s (median time
from process start to the first timed operation, over several fresh
processes), peak_rss_mb (median peak resident memory of a pass) and ok_frac (operations that ran and passed
their output checks over operations attempted).  --trace 1 alternates
untraced and traced passes and reports the per-layer metrics named in
BENCHMARK.json, from the traced passes.

Every metric is printed by name with its unit; the last line is one JSON
object.  The exit code is nonzero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from boundaries import COMPUTED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SETUP_PROBES = 5
DEADLINE_S = 170.0  # the whole run must end within 180 s
SELF_TIME_TOL_S = 1e-6


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    # single-threaded numerical libraries (README: deterministic, one thread)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args, out_dir, trace, setup_only, deadline):
    """Run one worker; returns (setup seconds, report) or raises RuntimeError."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--out", out_dir, "--root", ROOT, "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(), text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker passed the run deadline and was stopped")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{stderr[-2000:]}")
    report = json.loads(stdout.strip().splitlines()[-1])
    # perf_counter is the system-wide monotonic clock, shared by both processes
    return report["ready"] - start, report


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]}, {m["name"]: m for m in spec["per_layer"]}


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("study", "certify", "limit_side"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in ("src/impactlab/__init__.py", "configs/call_study.cfg", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            return _fail(f"{need} not found under {ROOT}; run from the root of an impactlab checkout")
    end_to_end, per_layer = _load_spec()

    deadline = t_start + DEADLINE_S
    tmp_parent = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_parent)
    setups, passes, errors = [], [], []
    crashed = 0  # workers that died without a report; each counts as a failed operation
    try:
        for i in range(SETUP_PROBES):
            setup, _ = _spawn(args, os.path.join(tmp, f"probe{i}"), 0, True, deadline)
            setups.append(setup)
        t0 = time.perf_counter()
        while True:
            untraced = sum(1 for p in passes if not p["traced"])
            traced = len(passes) - untraced
            done = time.perf_counter() - t0 >= args.seconds and untraced >= 1
            if done and (not args.trace or traced >= 2):
                break
            trace = 1 if args.trace and untraced > traced else 0
            setup, report = _spawn(args, os.path.join(tmp, f"pass{len(passes)}"), trace, False, deadline)
            setups.append(setup)
            report["traced"] = bool(trace)
            passes.append(report)
            if report["aborted"]:
                errors.append(f"pass {len(passes)} aborted:\n{report['aborted']}")
                break
    except RuntimeError as exc:
        errors.append(str(exc))
        crashed = 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass  # another run is using it

    ops = [op for p in passes for op in p["ops"]]
    attempted = max(1, len(ops) + crashed)
    failed = sum(1 for op in ops if op["errors"]) + crashed
    errors += [f"{op['name']}: {e}" for op in ops for e in op["errors"]]

    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    if args.trace:
        traced = [p for p in passes if p["traced"] and "layers" in p]
        errors += _check_layers(traced)
        if traced and plain:
            for name in traced[0]["layers"]:
                metrics[name] = statistics.median(p["layers"][name] for p in traced)
            traced_wall = statistics.median(p["wall_s"] for p in traced)
            metrics["trace.wall_s"] = traced_wall
            metrics["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in plain)
        wanted = per_layer
    else:
        if plain:
            metrics["wall_s"] = statistics.median(p["wall_s"] for p in plain)
            metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in plain)
        metrics["setup_s"] = statistics.median(setups) if setups else 0.0
        metrics["ok_frac"] = (attempted - failed) / attempted
        wanted = end_to_end
    missing = sorted(set(wanted) - set(metrics))
    extra = sorted(set(metrics) - set(wanted))
    if missing or extra:
        errors.append(f"metrics missing {missing}, not in BENCHMARK.json {extra}")

    correct = not errors and failed == 0
    for line in errors:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations, {failed} failed, {'correct' if correct else 'INCORRECT'}")
    result = {}
    for name in sorted(metrics):
        unit = wanted[name]["unit"] if name in wanted else "?"
        print(f"  {name} = {metrics[name]!r} {unit}")
        result[name] = {"value": metrics[name], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if correct else 1


def _check_layers(traced) -> list[str]:
    """Computed counts repeat exactly; layer self times sum to the traced wall time."""
    errors = []
    for name in COMPUTED:
        values = {repr(p["layers"][name]) for p in traced}
        if len(values) > 1:
            errors.append(f"computed count {name} differs between passes: {sorted(values)}")
    for p in traced:
        total = sum(v for k, v in p["layers"].items() if k.startswith("layer.") and k.endswith(".self_s"))
        if abs(total - p["wall_s"]) > SELF_TIME_TOL_S:
            errors.append(f"layer self times sum to {total}, traced wall time is {p['wall_s']}")
    return errors


if __name__ == "__main__":
    sys.exit(main())
