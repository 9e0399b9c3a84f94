"""Every benchmark workload runs, and passes its own checks, on the library
as it stands.

`perfbench/workloads.py` checks each output after its timer: the study's
prices, bounds, limit and table, the lookback DP's price and kept-table
size, its certificate, and the quadratic-claim hedge on all of its paths.
A library change that breaks one of those checks, or a config key the
workloads' set-up still reads, fails here, in the test suite, and not only
in a benchmark run.  The benchmark's files are imported, never changed.
"""

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


class RecordingBench:
    """A bench that runs each operation untimed and collects failed checks."""

    def __init__(self):
        self.op_name = None
        self.failed = []

    def op(self, name, fn, *args, **kwargs):
        self.op_name = name
        return fn(*args, **kwargs)

    def check(self, ok, message):
        if not ok:
            self.failed.append(f"{self.op_name}: {message}")

    def note(self, key, value):
        pass


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_benchmark_workload_passes_its_checks(tmp_path, name):
    setup, run = workloads.WORKLOADS[name]
    bench = RecordingBench()
    run(bench, setup(str(ROOT), 5, str(tmp_path)))
    assert bench.op_name is not None and bench.failed == []
