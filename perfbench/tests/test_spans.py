"""Span recorder: nesting, self-time arithmetic, and wrapper removal.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import os
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, ".."), os.path.join(HERE, "..", "..", "src")]

import boundaries  # noqa: E402
from spans import Span, SpanRecorder, layer_self_times, patched, self_times  # noqa: E402


class FakeClock:
    """Returns the next scripted time on each call."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_nested_spans_record_parents_and_self_time():
    # outer [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6]
    rec = SpanRecorder("run-1", clock=FakeClock([0, 1, 3, 4, 5, 6, 8, 10]))
    with rec.span("bench.outer"):
        with rec.span("pricing.a"):
            pass
        with rec.span("market.b"):
            with rec.span("payoffs.c"):
                pass
    by_name = {s.name: s for s in rec.spans}
    outer, a, b, c = (by_name[n] for n in ("bench.outer", "pricing.a", "market.b", "payoffs.c"))
    assert outer.parent is None
    assert a.parent == outer.id and b.parent == outer.id and c.parent == b.id
    assert {s.run_id for s in rec.spans} == {"run-1"}
    own = self_times(rec.spans)
    assert own[outer.id] == 10 - 2 - 4
    assert own[a.id] == 2
    assert own[b.id] == 4 - 1
    assert own[c.id] == 1
    layers = layer_self_times(rec.spans)
    assert layers == {"bench": 4, "pricing": 2, "market": 3, "payoffs": 1}
    assert sum(layers.values()) == outer.duration


def test_self_time_counts_overlapping_children_once():
    parent = Span(0, "bench.p", 0.0, 10.0, None, "r")
    kids = [Span(1, "dual.x", 2.0, 6.0, 0, "r"), Span(2, "dual.y", 4.0, 7.0, 0, "r"), Span(3, "dual.z", 9.0, 12.0, 0, "r")]
    own = self_times([parent, *kids])
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)  # [2, 7] plus the clipped [9, 10]


def test_wrapper_records_span_and_describe_hook():
    rec = SpanRecorder("r", clock=FakeClock([0, 1, 2, 5, 7, 9]))

    def inner(x):
        return x + 1

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_inner = rec.wrap(inner, "market.inner", lambda args, kwargs, res: ("t", {"n": args[0]}))
    wrapped_outer = rec.wrap(outer, "pricing.outer")
    assert wrapped_outer(3) == 8
    inner_span, outer_span = rec.spans
    assert (inner_span.name, inner_span.tag, inner_span.counts) == ("market.inner", "t", {"n": 3})
    assert inner_span.parent == outer_span.id
    assert (inner_span.start, inner_span.end, outer_span.start, outer_span.end) == (1, 2, 0, 5)


def test_wrapper_closes_span_when_the_call_raises():
    rec = SpanRecorder("r")

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        rec.wrap(boom, "dual.boom")()
    assert [s.tag for s in rec.spans] == ["raised"]
    with rec.span("bench.after") as span:
        pass
    assert span.parent is None  # the failed call left nothing open


def test_patched_restores_originals_even_on_error():
    Owner = SimpleNamespace(f=lambda: 1)
    original = Owner.f
    rec = SpanRecorder("r")
    with pytest.raises(KeyError):
        with patched(rec, [(Owner, "f", "bench.f", None)]):
            assert Owner.f is not original
            Owner.f()
            raise KeyError("stop")
    assert Owner.f is original
    Owner.f()
    assert len(rec.spans) == 1  # the call after restoring was not recorded


def test_traced_pass_removes_every_impactlab_wrapper():
    from impactlab import market

    table = boundaries.targets()
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in table]
    rec = SpanRecorder("r")
    with patched(rec, table):
        assert all(getattr(o, a) is not f for o, a, f in originals)
        params = market.MarketParams(p0=0.0, sigma=1.0, n_steps=4, depth=1.0, resilience=0.5)
        market.fundamental_path([1, -1, 1, 1], params)
    assert [s.name for s in rec.spans] == ["market.fundamental_path"]
    assert all(getattr(o, a) is f for o, a, f in originals)
    market.fundamental_path([1, -1, 1, 1], params)
    assert len(rec.spans) == 1


def test_lattice_sizes_match_the_pricing_lattice():
    from impactlab.market import MarketParams
    from impactlab.payoffs import PayoffSpec
    from impactlab.pricing import _build_lattice

    params = MarketParams(p0=0.0, sigma=1.0, n_steps=8, depth=1.0, resilience=0.5)
    for kind, aug in (("call", "none"), ("lookback_max", "running_max")):
        lattice = _build_lattice(PayoffSpec(kind), params, "auto")
        assert boundaries.lattice_sizes(aug, 8) == [len(p) for p in lattice.prices]


def test_worker_pass_unwraps_and_self_times_sum_to_wall():
    import worker
    from impactlab import market

    params = market.MarketParams(p0=0.0, sigma=1.0, n_steps=2, depth=1.0, resilience=0.5)
    original = market.fundamental_path

    def run(bench, inputs):
        bench.op("tiny", lambda: [market.fundamental_path([1, -1], inputs) for _ in range(3)])

    traced = worker.run_pass(run, params, SimpleNamespace(trace=1, workload="tiny", seed=0))
    assert traced["aborted"] is None and market.fundamental_path is original
    layers = traced["layers"]
    assert layers["market.fundamental_path.calls"] == 3
    own = sum(v for k, v in layers.items() if k.startswith("layer."))
    assert own == pytest.approx(traced["wall_s"], abs=1e-9)
    plain = worker.run_pass(run, params, SimpleNamespace(trace=0, workload="tiny", seed=0))
    assert plain["aborted"] is None and "layers" not in plain
