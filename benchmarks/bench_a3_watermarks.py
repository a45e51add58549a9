"""Ablation A3: watermark lateness vs window correctness vs latency.

The event-time machinery behind every streaming experiment: with
out-of-order arrivals, a tight watermark emits results early but drops
late data (wrong counts); a loose watermark waits longer but is exact.
We sweep the out-of-orderness bound against a stream with known skew and
report dropped-late counts, window-count error, and result delay.
"""

import numpy as np

from repro.streaming import (
    Element,
    Executor,
    JobBuilder,
    TumblingWindows,
)
from repro.util.rng import make_rng

from tableprint import print_table

N = 4_000
TRUE_WINDOW = 10.0
SKEW_STD = 3.0  # arrival delay std in seconds
LATENESS = [0.0, 2.0, 5.0, 10.0, 20.0]


def _out_of_order_elements():
    rng = make_rng(73)
    rows = []
    for i in range(N):
        event_time = i * (400.0 / N)  # 400 s of event time
        delay = abs(float(rng.normal(0.0, SKEW_STD)))
        rows.append((event_time + delay, event_time))
    rows.sort()  # arrival order = event time + random delay
    return [Element(value={"t": et}, timestamp=et)
            for _arrival, et in rows]


def run_experiment():
    elements = _out_of_order_elements()
    true_counts = {}
    for element in elements:
        start = (element.timestamp // TRUE_WINDOW) * TRUE_WINDOW
        true_counts[start] = true_counts.get(start, 0) + 1
    rows = []
    for lateness in LATENESS:
        builder = JobBuilder(f"wm-{lateness}")
        (builder.source("s", list(elements))
                .with_watermarks(lateness)
                .key_by(lambda v: 0)
                .window(TumblingWindows(TRUE_WINDOW), "count")
                .sink("out"))
        executor = Executor(builder.build())
        sinks = executor.run()
        # the executor's clones hold the run's state, not job.operators
        dropped_late = sum(op.dropped_late for op in
                           executor.subtask_operators("window_0"))
        got_counts = {r.window.start: r.value
                      for r in sinks["out"].values}
        errors = [abs(got_counts.get(start, 0) - count)
                  for start, count in true_counts.items()]
        rows.append([lateness, dropped_late,
                     int(np.sum(errors)),
                     float(np.mean(errors)),
                     lateness + TRUE_WINDOW])  # result delay bound
    return rows


def bench_a3_watermarks(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        "A3  ablation: watermark lateness vs correctness "
        f"(arrival skew std {SKEW_STD}s)",
        ["max lateness s", "dropped late", "total count error",
         "mean error/window", "result delay bound s"],
        rows,
        note="tight watermarks answer fast but drop late data; "
             "~3 sigma of the skew recovers exact counts")
    dropped = [r[1] for r in rows]
    errors = [r[2] for r in rows]
    # Dropping shrinks monotonically with allowed lateness.
    assert all(b <= a for a, b in zip(dropped, dropped[1:]))
    # Zero lateness on a skewed stream loses real data.
    assert dropped[0] > 100
    # Past ~3 sigma the counts are exact.
    assert errors[-1] == 0
    assert dropped[-1] == 0
    # Count error equals dropped records (they are the same elements).
    for row in rows:
        assert row[2] == row[1]
