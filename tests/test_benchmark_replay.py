"""The benchmark's hedge replay runs on the library as it stands.

`perfbench/workloads.py` replays the quadratic-claim hedge by passing
`market.fundamental_path`'s return straight into `market.stopping_grid` and
`payoffs.quadratic_claim`.  A library change that breaks that hand-off
fails here, in the test suite, and not only in a benchmark run.  The
benchmark's files are imported, never changed.
"""

import pathlib
import sys
from dataclasses import replace

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def test_benchmark_hedge_replay_has_no_negative_slack(tmp_path):
    inp = workloads.setup_certify(str(ROOT), 5, str(tmp_path))
    inp = replace(inp, hedge_shocks=inp.hedge_shocks[:5])
    assert inp.hedge_shocks.shape == (5, 256) == (5, inp.hedge_params.n_steps)
    strat, slack = workloads._replay_hedge(inp)
    assert slack.shape == (5,) and np.all(np.isfinite(slack))
    assert np.count_nonzero(slack < 0) == 0
