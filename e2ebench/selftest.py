"""Self-test of the benchmark at a tiny input size.

    python3 e2ebench/selftest.py

Checks that every workload emits every end-to-end and per-layer metric
with its unit, that another seed changes the inputs but not the metric
set, that a deliberately corrupted store row drives ``error_rate`` above
zero and fails the command, that the bench's commit hooks never call
``CheckpointStore.latest()``/``verify()``, and that ``bench.hook_s`` is
reported for every coordinated workload.  Exits non-zero on a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
from probe import Probe, TimedCheckpointStore
from workloads import WORKLOADS

SCALE = "0.125"


def _run(workload: str, seed: int, trace: int,
         corrupt_row: bool = False) -> tuple[int, dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0", "--trace", str(trace),
                         "--scale", SCALE], corrupt_row=corrupt_row)
    text = out.getvalue()
    return code, json.loads(text.strip().splitlines()[-1]), text


def main() -> int:
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    probe = Probe(traced=False)
    store = TimedCheckpointStore(probe)
    store.latest()
    expect(probe.observer_calls == 0, "latest() outside hooks not counted")
    probe.in_hook = True
    store.latest()
    store.verify(1)
    expect(probe.observer_calls >= 2,
           "latest()/verify() inside hooks are counted")

    for name, wl in WORKLOADS.items():
        for trace, wanted in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            code, result, text = _run(name, 1, trace)
            metrics = result["metrics"]
            expect(code == 0 and result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   f"{name} trace={trace}: correct, error_rate 0")
            expect({k: m["unit"] for k, m in metrics.items()} == wanted,
                   f"{name} trace={trace}: every metric with its unit")
            expect(all(f"{k} " in text for k in wanted)
                   and "error_rate" in text,
                   f"{name} trace={trace}: metrics printed by name")
            if trace and wl.coordinated:
                expect(metrics["bench.hook_s"]["value"] > 0,
                       f"{name}: bench.hook_s reported")
        a, b = wl.inputs(1, float(SCALE)), wl.inputs(2, float(SCALE))
        expect(a["rows"] != b["rows"], f"{name}: seed changes the inputs")
        _, other, _ = _run(name, 2, 0)
        expect(set(other["metrics"]) == set(run.END_TO_END),
               f"{name}: seed keeps the metric set")

    for name in ("ward_python", "serve_upsert"):
        code, result, _ = _run(name, 1, 0, corrupt_row=True)
        expect(code != 0 and result["failed"] > 0 and not result["correct"],
               f"{name}: a corrupted store row fails the command")

    print(f"selftest: {'OK' if not failures else 'FAILED'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
