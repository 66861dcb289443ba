"""Span arithmetic on a synthetic nested trace.

Run with ``python3 -m pytest perfbench/test_spans.py``.
"""

from perfbench.spans import ROOT, Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def traced_step(tracer: Tracer, clock: FakeClock) -> None:
    """step 10s = 1 own + query[8] ; query 8 = 1 own + transfer 1
    + interproc[4] + 2 own ; interproc 4 = 1 own + query[2] + 1 own;
    inner query 2 = 0.5 own + transfer 1.5."""

    def transfer(seconds: float) -> None:
        clock.advance(seconds)

    def inner_query() -> None:
        clock.advance(0.5)
        tracer.run("domains.transfer", transfer, 1.5)

    def interproc() -> None:
        clock.advance(1.0)
        tracer.run("daig.query", inner_query)
        clock.advance(1.0)

    def outer_query() -> None:
        clock.advance(1.0)
        tracer.run("domains.transfer", transfer, 1.0)
        tracer.run("interproc.self", interproc)
        clock.advance(2.0)

    def step() -> None:
        clock.advance(1.0)
        tracer.run("daig.query", outer_query)
        clock.advance(1.0)

    tracer.run(ROOT, step)


def test_self_times_sum_to_root_duration():
    clock = FakeClock()
    tracer = Tracer(clock)
    traced_step(tracer, clock)
    assert clock.now == 10.0
    assert sum(tracer.self_time.values()) == clock.now


def test_recursion_into_same_layer_is_counted_once():
    clock = FakeClock()
    tracer = Tracer(clock)
    traced_step(tracer, clock)
    # Outer query: 1 + 2 own; inner query: 0.5 own.  Summing durations
    # (8 + 2) would count the inner query twice.
    assert tracer.self_time["daig.query"] == 3.5
    assert tracer.self_time["domains.transfer"] == 2.5
    assert tracer.self_time["interproc.self"] == 2.0
    assert tracer.self_time[ROOT] == 2.0
    assert tracer.calls["daig.query"] == 2


def test_exceptions_close_their_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def failing() -> None:
        clock.advance(3.0)
        raise ValueError("stale demand")

    def step() -> None:
        try:
            tracer.run("daig.query", failing)
        except ValueError:
            clock.advance(1.0)

    tracer.run(ROOT, step)
    assert tracer.self_time["daig.query"] == 3.0
    assert tracer.self_time[ROOT] == 1.0
    tracer.reset()
    assert not tracer.self_time


def test_wrap_preserves_results_and_layer():
    clock = FakeClock()
    tracer = Tracer(clock)

    def add(a: int, b: int) -> int:
        clock.advance(0.25)
        return a + b

    wrapped = tracer.wrap("domains.join", add)
    assert tracer.run(ROOT, wrapped, 2, b=3) == 5
    assert wrapped.__wrapped_layer__ == "domains.join"
    assert tracer.self_time["domains.join"] == 0.25
