"""Event-time window aggregation operator.

Keyed elements are assigned to windows; when the watermark passes a
window's end (+ allowed lateness), the window fires and an aggregate is
emitted as ``WindowResult``.  Elements arriving after their window has
fired-and-purged are counted as *dropped late* — the quantity the A3
watermark experiment sweeps.

Session windows merge on insert, the standard merging-window algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..util.errors import StreamError
from .batch import RecordBatch
from .element import Element, StreamItem, Watermark
from .operators import Operator, _segmented
from .windows import TumblingWindows, Window, WindowAssigner

__all__ = ["WindowResult", "LateRecord", "WindowAggregateOperator",
           "aggregators"]


@dataclass(frozen=True)
class WindowResult:
    """Output of a fired window."""

    key: Any
    window: Window
    value: Any
    count: int


@dataclass(frozen=True)
class LateRecord:
    """A late element surfaced on the side output instead of dropped.

    Downstream can route these to a correction path (e.g. re-aggregate
    and amend released results) — the recovery story for the timeliness
    vs completeness trade-off of experiment A3.
    """

    value: Any
    timestamp: float
    key: Any
    lateness: float  # how far behind the watermark it arrived


class _Agg:
    """An incremental aggregator: (init, add, merge, result)."""

    def __init__(self, init: Callable[[], Any],
                 add: Callable[[Any, Any], Any],
                 merge: Callable[[Any, Any], Any],
                 result: Callable[[Any], Any]) -> None:
        self.init = init
        self.add = add
        self.merge = merge
        self.result = result

    def __deepcopy__(self, memo: dict) -> "_Agg":
        # Stateless: operator clones share it, so the window kernel's
        # ``agg is aggregators[...]`` fast-path checks hold for clones.
        return self


def _exact_add(partials: list, x: float) -> list:
    """Shewchuk's grow-partials step: fold ``x`` into a list of
    non-overlapping partial sums that exactly represent the true sum."""
    x = float(x)
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]
    return partials


#: accumulator length at which _sum_add collapses to exact partials
_COMPACT_AT = 64


def _exact_partials(values: list) -> list:
    """Compact a float list to a short list with the same *exact* sum.

    Iterated-fsum expansion: each round appends the correctly rounded
    sum of the residual and subtracts it back out, so the invariant
    ``exact_sum(out) + exact_sum(work) == exact_sum(values)`` holds at
    every step; the residual shrinks below one ulp per round and almost
    always hits exactly zero within a few rounds.  Runs at ``math.fsum``
    (C) speed — the reason the windowed-sum hot path can afford exact
    arithmetic.  Non-finite inputs (or a stubborn residual) fall back to
    the Shewchuk grow-partials fold, which is also exact-sum-preserving.
    """
    out: list = []
    work = list(values)
    for _ in range(8):
        try:
            s = math.fsum(work)
        except (OverflowError, ValueError):
            break
        if s == 0.0:
            return out if out else [0.0]
        if not math.isfinite(s):
            break
        out.append(s)
        work.append(-s)
    partials: list = []
    for y in work:
        _exact_add(partials, y)
    out.extend(partials)
    return out


def _sum_add(acc: list, v) -> list:
    """Accumulate for an *order-independent* float sum.

    The accumulator is a list whose exact (infinite-precision) sum is
    the window's true sum: the hot path is a C-speed ``append``, and
    when the list grows it is compacted with :func:`_exact_partials` —
    an exact-sum-preserving rewrite, so where the compaction boundary
    falls cannot affect the result.  ``math.fsum`` at finalize is then
    the correctly rounded true sum whatever the arrival interleaving
    across parallel channels (or its perturbation by injected network
    delays) was.
    """
    acc.append(float(v))
    if len(acc) >= _COMPACT_AT:
        acc[:] = _exact_partials(acc)
    return acc


def _sum_extend(acc: list, values: list, pure: bool = False) -> list:
    """Bulk-append floats into a sum accumulator, compacting at exactly
    the boundaries the per-item :func:`_sum_add` loop would hit — the
    accumulator list stays bit-identical across execution modes.

    ``pure`` declares every value is already a Python ``float`` (e.g.
    from ``ndarray.tolist()``), where ``float(v)`` is an identity and
    the slice can extend directly.
    """
    i = 0
    n = len(values)
    while i < n:
        room = _COMPACT_AT - len(acc)
        if room <= 0:
            acc.append(float(values[i]))
            i += 1
            acc[:] = _exact_partials(acc)
            continue
        take = min(room, n - i)
        if pure:
            acc.extend(values[i:i + take])
        else:
            acc.extend(float(v) for v in values[i:i + take])
        i += take
        if len(acc) >= _COMPACT_AT:
            acc[:] = _exact_partials(acc)
    return acc


def _sum_merge(a: list, b: list) -> list:
    a.extend(b)
    if len(a) >= _COMPACT_AT:
        a[:] = _exact_partials(a)
    return a


def _mean_init():
    return [[], 0]


def _mean_add(acc, v):
    _sum_add(acc[0], v)
    acc[1] += 1
    return acc


def _mean_merge(a, b):
    return [_sum_merge(a[0], b[0]), a[1] + b[1]]


aggregators: dict[str, _Agg] = {
    "count": _Agg(lambda: 0, lambda a, _v: a + 1, lambda a, b: a + b,
                  lambda a: a),
    "sum": _Agg(list, _sum_add, _sum_merge,
                lambda a: math.fsum(a)),
    "min": _Agg(lambda: float("inf"), min, min,
                lambda a: a),
    "max": _Agg(lambda: float("-inf"), max, max,
                lambda a: a),
    "mean": _Agg(_mean_init, _mean_add, _mean_merge,
                 lambda a: math.fsum(a[0]) / a[1] if a[1] else float("nan")),
    "list": _Agg(list, lambda a, v: a + [v], lambda a, b: a + b,
                 lambda a: a),
}


class WindowAggregateOperator(Operator):
    """Keyed event-time windowing with incremental aggregation."""

    requires_shuffle = True

    def __init__(self, name: str, assigner: WindowAssigner,
                 aggregate: str | _Agg = "count",
                 allowed_lateness: float = 0.0,
                 value_fn: Callable[[Any], Any] | None = None,
                 emit_late: bool = False) -> None:
        super().__init__(name)
        self.assigner = assigner
        if isinstance(aggregate, str):
            try:
                aggregate = aggregators[aggregate]
            except KeyError:
                raise StreamError(
                    f"unknown aggregate {aggregate!r}; choose from "
                    f"{sorted(aggregators)}"
                ) from None
        self.agg = aggregate
        if allowed_lateness < 0:
            raise StreamError("allowed_lateness must be non-negative")
        self.allowed_lateness = allowed_lateness
        self._identity_value = value_fn is None
        #: transient cache: last key dictionary verified None-free by
        #: the bulk-eligibility check (slices of one macro batch share
        #: their dictionary, so the scan runs once per batch, not per
        #: slice).  Never snapshotted.
        self._kd_clean: list | None = None
        self.value_fn = value_fn if value_fn is not None else (lambda v: v)
        self.emit_late = emit_late
        # key -> {window -> [acc, count]}
        self._windows: dict[Any, dict[Window, list[Any]]] = {}
        #: transient window -> {key: None} reverse index: the firing
        #: scan visits distinct windows (usually a handful) instead of
        #: every (key, window) pair.  ``None`` means "rebuild on next
        #: firing" (after restores and session merges); never
        #: snapshotted.
        self._win_index: dict[Window, dict[Any, None]] | None = {}
        self._current_wm = float("-inf")
        # Lower bound on min(window.end + allowed_lateness) over all open
        # windows: lets on_watermark skip the full ripeness scan when no
        # window can possibly fire (the overwhelmingly common case with
        # per-element watermarks).
        self._min_deadline = float("inf")
        self.dropped_late = 0
        self.fired = 0

    # -- element path --------------------------------------------------------

    def process(self, element: Element) -> list[StreamItem]:
        if element.key is None:
            raise StreamError(
                f"window {self.name!r} requires keyed input; add key_by()"
            )
        if element.timestamp + self.allowed_lateness <= self._current_wm:
            self.dropped_late += 1
            if self.emit_late:
                late = LateRecord(
                    value=element.value, timestamp=element.timestamp,
                    key=element.key,
                    lateness=self._current_wm - element.timestamp)
                return [Element(value=late, timestamp=element.timestamp,
                                key=element.key)]
            return []
        per_key = self._windows.setdefault(element.key, {})
        value = self.value_fn(element.value)
        for window in self.assigner.assign(element.timestamp):
            if self.assigner.merging:
                window = self._merge_sessions(per_key, window)
            slot = per_key.get(window)
            if slot is None:
                slot = [self.agg.init(), 0]
                per_key[window] = slot
                deadline = window.end + self.allowed_lateness
                if deadline < self._min_deadline:
                    self._min_deadline = deadline
                index = self._win_index
                if index is not None:
                    index.setdefault(window, {})[element.key] = None
            slot[0] = self.agg.add(slot[0], value)
            slot[1] += 1
        return []

    def process_batch(self, items) -> list[StreamItem]:
        items = list(items)
        if self._bulk_eligible(items):
            return self._process_bulk(items)
        return _segmented(self, items)

    # -- columnar bulk path --------------------------------------------------

    def _bulk_eligible(self, items: list) -> bool:
        """The grouped-reduction kernel covers the common shape: keyed
        columnar batches into non-merging tumbling windows without the
        late side output.  Everything else (loose elements, unkeyed
        batches, sessions/sliding, emit_late) takes the per-item
        fallback via :func:`_segmented`."""
        if self.emit_late or type(self.assigner) is not TumblingWindows:
            return False
        saw_batch = False
        clean = self._kd_clean  # last key dictionary known None-free
        for item in items:
            if type(item) is RecordBatch:
                if item.key_codes is None:
                    return False
                kd = item.key_dict
                if kd is not clean:
                    if any(k is None for k in kd):
                        return False
                    clean = kd
                saw_batch = True
            elif not isinstance(item, Watermark):
                return False
        self._kd_clean = clean
        return saw_batch

    def _process_bulk(self, items: list) -> list[StreamItem]:
        """Accumulate every accepted element of the batch, then replay
        the watermarks in order.

        Equivalence with the per-item interleaving: an element accepted
        at position *q* has ``ts + lateness > wm(q)`` and its tumbling
        window ends after ``ts``, so no watermark at ``p <= q`` can have
        fired that window — accumulate-then-fire emits byte-identical
        results.  Late drops still use the running watermark at each
        segment, so the drop set is unchanged too.
        """
        out: list[StreamItem] = []
        wm = self._current_wm
        batches: list[RecordBatch] = []
        batch_wms: list[float] = []
        watermarks: list[Watermark] = []
        n_processed = 0
        for item in items:
            if type(item) is RecordBatch:
                n_processed += len(item)
                batches.append(item)
                batch_wms.append(wm)
            else:
                if item.timestamp > wm:
                    wm = item.timestamp
                watermarks.append(item)
        dropped = self._bulk_accumulate(batches, batch_wms) \
            if batches else 0
        emitted = 0
        # Replay watermarks in order, inlining ``on_watermark``'s
        # no-ripe-window fast path (its exact state transition) so the
        # common below-deadline watermark costs one compare, not a call.
        cur = self._current_wm
        min_dl = self._min_deadline
        for watermark in watermarks:
            if watermark.timestamp > cur:
                cur = watermark.timestamp
            if min_dl > cur:
                out.append(watermark)
                continue
            self._current_wm = cur
            wm_out = self.on_watermark(watermark)
            emitted += len(wm_out) - 1  # all Elements plus the watermark
            out.extend(wm_out)
            cur = self._current_wm
            min_dl = self._min_deadline
        self._current_wm = cur
        self.dropped_late += dropped
        self.processed += n_processed
        self.emitted += emitted
        return out

    def _bulk_accumulate(self, batches: list[RecordBatch],
                         batch_wms: list[float]) -> int:
        """One grouped reduction over (key, window) for the whole run:
        remap per-batch key codes to a global dictionary, concatenate
        columns once, drop late rows with a single vectorized mask
        (``batch_wms`` carries the running watermark each batch arrived
        under), assign tumbling starts vectorized, then update each
        group's accumulator in arrival order.  Returns the late-drop
        count."""
        agg = self.agg
        # Global key-code remap: consecutive batches usually share one
        # key dictionary (zero-copy slices of a macro batch), so gather
        # through a per-dictionary remap built once.
        gindex: dict[Any, int] = {}
        gkeys: list[Any] = []
        remap_cache: dict[int, np.ndarray] = {}
        code_parts: list[np.ndarray] = []
        run_codes: list[np.ndarray] = []
        run_remap: np.ndarray | None = None

        def _flush_codes() -> None:
            if not run_codes:
                return
            raw = (run_codes[0] if len(run_codes) == 1
                   else np.concatenate(run_codes))
            code_parts.append(run_remap[raw])
            run_codes.clear()

        for b in batches:
            kd = b.key_dict
            remap = remap_cache.get(id(kd))
            if remap is None:
                remap = np.empty(len(kd), dtype=np.int64)
                for i, k in enumerate(kd):
                    g = gindex.get(k)
                    if g is None:
                        g = len(gkeys)
                        gindex[k] = g
                        gkeys.append(k)
                    remap[i] = g
                remap_cache[id(kd)] = remap
            if remap is not run_remap:
                _flush_codes()
                run_remap = remap
            run_codes.append(b.key_codes)
        _flush_codes()
        codes = (code_parts[0] if len(code_parts) == 1
                 else np.concatenate(code_parts))
        ts = (batches[0].timestamps if len(batches) == 1
              else np.concatenate([b.timestamps for b in batches]))

        # Per-element aggregation inputs, in arrival order.
        is_sum = agg is aggregators["sum"]
        is_mean = agg is aggregators["mean"]
        is_count = agg is aggregators["count"]
        values_arr: np.ndarray | None = None
        values_src: list | None = None
        if self._identity_value:
            if (is_sum or is_mean or is_count) and \
                    all(isinstance(b.values, np.ndarray) for b in batches):
                if not is_count:
                    values_arr = (batches[0].values
                                  if len(batches) == 1 else
                                  np.concatenate([b.values
                                                  for b in batches]))
            else:
                values_src = []
                for b in batches:
                    values_src.extend(b.values_list())
        else:
            value_fn = self.value_fn
            values_src = []
            for b in batches:
                values_src.extend(value_fn(v) for v in b.values_list())

        # Late drop: one mask over the concatenation, each row judged
        # against the watermark its batch arrived under — the same
        # ``ts + lateness <= wm`` test the per-item path applies.
        dropped = 0
        lateness = self.allowed_lateness
        if batch_wms[-1] != float("-inf"):  # wms nondecreasing: max is last
            wm_arr = np.repeat(np.asarray(batch_wms, dtype=np.float64),
                               [len(b) for b in batches])
            late = ts + lateness <= wm_arr
            dropped = int(late.sum())
            if dropped:
                keep = ~late
                ts = ts[keep]
                codes = codes[keep]
                if values_arr is not None:
                    values_arr = values_arr[keep]
                elif values_src is not None:
                    values_src = [v for v, k in zip(values_src, keep)
                                  if k]
                if not len(ts):
                    return dropped

        starts = self.assigner.assign_starts(ts)
        size = self.assigner.size
        if len(starts) > 1 and bool(np.all(starts[1:] >= starts[:-1])):
            # Monotone timestamps (the common replay shape): unique
            # starts are run boundaries — no sort needed.
            new_run = np.empty(len(starts), dtype=bool)
            new_run[0] = True
            np.not_equal(starts[1:], starts[:-1], out=new_run[1:])
            uniq_starts = starts[new_run]
            start_inv = np.cumsum(new_run) - 1
        else:
            uniq_starts, start_inv = np.unique(starts, return_inverse=True)
        gid = codes * np.int64(len(uniq_starts)) + start_inv
        order = np.argsort(gid, kind="stable")
        bounds = np.flatnonzero(np.diff(gid[order])) + 1

        # Contiguous-slice gathers: group membership is constant within
        # a run after the stable sort, so key code and window index are
        # read from each group's first row only; values are gathered
        # fully (every row's value feeds its accumulator, in arrival
        # order).
        first_rows = np.empty(len(bounds) + 1, dtype=np.int64)
        first_rows[0] = 0
        first_rows[1:] = bounds
        leaders = order[first_rows]
        group_codes = codes[leaders].tolist()
        group_sidx = start_inv[leaders].tolist()
        if values_arr is not None:
            sorted_vals: list | None = values_arr[order].tolist()
        elif values_src is not None:
            sorted_vals = [values_src[i] for i in order.tolist()]
        else:
            sorted_vals = None

        windows = self._windows
        min_deadline = self._min_deadline
        win_index = self._win_index
        pure_vals = values_arr is not None  # tolist() gave Python floats
        start_list = uniq_starts.tolist()
        window_cache: list[Window | None] = [None] * len(start_list)
        edges = bounds.tolist()
        edges.append(len(order))
        a = 0
        for gi, b_ in enumerate(edges):
            key = gkeys[group_codes[gi]]
            sidx = group_sidx[gi]
            window = window_cache[sidx]
            if window is None:
                start = start_list[sidx]
                window = window_cache[sidx] = Window(start, start + size)
            per_key = windows.get(key)
            if per_key is None:
                per_key = windows[key] = {}
            slot = per_key.get(window)
            if slot is None:
                slot = per_key[window] = [agg.init(), 0]
                deadline = window.end + lateness
                if deadline < min_deadline:
                    min_deadline = deadline
                if win_index is not None:
                    win_index.setdefault(window, {})[key] = None
            m = b_ - a
            if is_count:
                slot[0] += m
            elif is_sum:
                _sum_extend(slot[0], sorted_vals[a:b_], pure_vals)
            elif is_mean:
                acc = slot[0]
                _sum_extend(acc[0], sorted_vals[a:b_], pure_vals)
                acc[1] += m
            else:
                acc = slot[0]
                add = agg.add
                for v in sorted_vals[a:b_]:
                    acc = add(acc, v)
                slot[0] = acc
            slot[1] += m
            a = b_
        self._min_deadline = min_deadline
        return dropped

    def _run(self, elements: list[Element], out: list[StreamItem]) -> None:
        """Watermark-free element run with hoisted hot-path locals; the
        watermark is constant across the run so the late check is a pure
        comparison."""
        assigner = self.assigner
        assign = assigner.assign
        merging = assigner.merging
        value_fn = self.value_fn
        agg_init = self.agg.init
        agg_add = self.agg.add
        windows = self._windows
        lateness = self.allowed_lateness
        current_wm = self._current_wm
        min_deadline = self._min_deadline
        emit_late = self.emit_late
        dropped = 0
        late_emitted = 0
        for element in elements:
            key = element.key
            if key is None:
                raise StreamError(
                    f"window {self.name!r} requires keyed input; add key_by()"
                )
            ts = element.timestamp
            if ts + lateness <= current_wm:
                dropped += 1
                if emit_late:
                    late = LateRecord(value=element.value, timestamp=ts,
                                      key=key, lateness=current_wm - ts)
                    out.append(Element(value=late, timestamp=ts, key=key))
                    late_emitted += 1
                continue
            per_key = windows.get(key)
            if per_key is None:
                per_key = windows[key] = {}
            value = value_fn(element.value)
            for window in assign(ts):
                if merging:
                    window = self._merge_sessions(per_key, window)
                slot = per_key.get(window)
                if slot is None:
                    slot = per_key[window] = [agg_init(), 0]
                    deadline = window.end + lateness
                    if deadline < min_deadline:
                        min_deadline = deadline
                    index = self._win_index
                    if index is not None:
                        index.setdefault(window, {})[key] = None
                slot[0] = agg_add(slot[0], value)
                slot[1] += 1
        self._min_deadline = min_deadline
        self.dropped_late += dropped
        self.processed += len(elements)
        self.emitted += late_emitted

    def _merge_sessions(self, per_key: dict[Window, list[Any]],
                        new_window: Window) -> Window:
        """Merge the provisional session window with overlapping ones."""
        # Merging rewrites window identities mid-stream; cheaper to
        # rebuild the firing index lazily than to track the rewrite.
        self._win_index = None
        overlapping = [w for w in per_key if w.intersects(new_window)]
        if not overlapping:
            return new_window
        merged = new_window
        acc = self.agg.init()
        count = 0
        for w in overlapping:
            merged = merged.merged(w)
            slot = per_key.pop(w)
            acc = self.agg.merge(acc, slot[0])
            count += slot[1]
        per_key[merged] = [acc, count]
        return merged

    # -- watermark path ---------------------------------------------------------

    def on_watermark(self, watermark: Watermark) -> list[StreamItem]:
        self._current_wm = max(self._current_wm, watermark.timestamp)
        if self._min_deadline > self._current_wm:
            # No open window can be ripe yet; skip the full scan.  The
            # bound is conservative (a lower bound), so this fast path
            # never suppresses a firing.
            return [watermark]
        wm = self._current_wm
        lateness = self.allowed_lateness
        index = self._win_index
        if index is None:
            index = self._win_index = {}
            for key, per_key in self._windows.items():
                for w in per_key:
                    index.setdefault(w, {})[key] = None
        # Ripeness over *distinct* windows (a handful), not every
        # (key, window) pair; survivors seen in the same pass give the
        # exact post-fire min deadline.
        ripe: list[Window] = []
        min_deadline = float("inf")
        for w in index:
            deadline = w.end + lateness
            if deadline <= wm:
                ripe.append(w)
            elif deadline < min_deadline:
                min_deadline = deadline
        if not ripe:
            self._min_deadline = min_deadline
            return [watermark]
        ripe.sort()
        keys: dict[Any, None] = {}
        for w in ripe:
            keys.update(index[w])
        out: list[StreamItem] = []
        windows = self._windows
        agg_result = self.agg.result
        for key in sorted(keys, key=repr):
            per_key = windows.get(key)
            if per_key is None:
                continue
            fired_here = 0
            for window in ripe:
                slot = per_key.pop(window, None)
                if slot is None:
                    continue
                fired_here += 1
                result = WindowResult(key=key, window=window,
                                      value=agg_result(slot[0]),
                                      count=slot[1])
                out.append(Element(value=result, timestamp=window.end,
                                   key=key))
            if fired_here:
                self.fired += fired_here
                if not per_key:
                    del windows[key]
        for w in ripe:
            del index[w]
        self._min_deadline = min_deadline
        out.append(watermark)
        return out

    def flush(self) -> list[StreamItem]:
        """Fire every remaining window at end-of-stream."""
        return [item for item in self.on_watermark(Watermark(float("inf")))
                if isinstance(item, Element)]

    # -- checkpointing -------------------------------------------------------------

    def snapshot(self) -> Any:
        import copy
        return {
            "windows": copy.deepcopy(self._windows),
            "wm": self._current_wm,
            "dropped": self.dropped_late,
            "fired": self.fired,
        }

    def restore(self, snapshot: Any) -> None:
        import copy
        snapshot = snapshot or {}
        self._windows = copy.deepcopy(snapshot.get("windows", {}))
        self._win_index = None
        self._current_wm = snapshot.get("wm", float("-inf"))
        self.dropped_late = snapshot.get("dropped", 0)
        self.fired = snapshot.get("fired", 0)
        self._recompute_min_deadline()

    def _recompute_min_deadline(self) -> None:
        self._min_deadline = min(
            (w.end + self.allowed_lateness
             for per_key in self._windows.values() for w in per_key),
            default=float("inf"))

    # -- key-grouped checkpoints (parallel plans) ----------------------------

    def snapshot_key_groups(self, num_key_groups: int) -> dict[int, Any]:
        import copy
        from .shuffle import group_by_key_group
        return group_by_key_group(copy.deepcopy(self._windows),
                                  num_key_groups)

    def scalar_snapshot(self) -> Any:
        return {"wm": self._current_wm, "dropped": self.dropped_late,
                "fired": self.fired}

    def restore_parallel(self, groups: dict[int, Any], scalars: list[Any],
                         primary: bool = True) -> None:
        import copy
        from .shuffle import merge_key_groups
        self._windows = copy.deepcopy(merge_key_groups(groups.values()))
        self._win_index = None
        if len(scalars) == 1:
            self._current_wm = scalars[0]["wm"]
            self.dropped_late = scalars[0]["dropped"]
            self.fired = scalars[0]["fired"]
        else:
            # Rescale: the watermark regresses to the conservative
            # minimum (can only admit *more* data, never drop extra);
            # counters are job-wide totals, carried by the primary
            # subtask so aggregation across subtasks stays exact.
            self._current_wm = min(
                (s["wm"] for s in scalars), default=float("-inf"))
            self.dropped_late = sum(s["dropped"] for s in scalars) \
                if primary else 0
            self.fired = sum(s["fired"] for s in scalars) if primary else 0
        self._recompute_min_deadline()
