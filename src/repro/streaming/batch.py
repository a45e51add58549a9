"""Columnar batches: the zero-copy hot-path record representation.

A :class:`RecordBatch` stores a run of consecutive :class:`Element`\\ s
as parallel columns — a ``float64`` timestamp array, a value column, and
a dictionary-encoded key column — instead of a Python list of Element
objects.  Batches flow through channels next to plain stream items
(watermarks, barriers, loose elements), and operators that implement a
columnar kernel (``has_columnar_kernel = True``) consume them whole;
everything else sees decoded Elements via the per-item fallback, so the
representation is invisible above the channel layer (see
docs/ARCHITECTURE.md, "Columnar batch representation").

Layout rules that keep columnar execution **bit-identical** to per-item
execution:

- *Timestamps* are always encoded from Python floats and decoded with
  ``ndarray.tolist()``, which round-trips ``float`` exactly.
- *Values* use a ``float64`` array only when every source value is a
  Python ``float`` (``py_values=True``, decoded via ``tolist``); arrays
  produced by vectorized kernels keep ``py_values=False`` and decode to
  numpy scalars — exactly what the per-item vectorized path
  (``fn(np.asarray([v]))[0]``) produces.  Anything else (ints, dicts,
  mixed types) stays a Python list: the *opaque* path.
- *Keys* are dictionary-encoded: ``key_codes[i]`` indexes ``key_dict``,
  which holds the **original key objects** — never numpy conversions —
  so ``repr``-based shuffle hashing and state snapshots are unchanged.

Slicing is zero-copy (numpy views); all mutation-style operations
(``with_values`` etc.) return new batches sharing unchanged columns.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .element import Element, StreamItem, Watermark

__all__ = [
    "RecordBatch",
    "ColumnarStream",
    "item_weight",
    "items_weight",
    "take_prefix",
    "decode_items",
    "elements_of",
]


class RecordBatch:
    """A columnar run of elements (no watermarks/barriers inside)."""

    __slots__ = ("timestamps", "values", "py_values", "key_codes",
                 "key_dict")

    def __init__(self, timestamps: np.ndarray, values: Any,
                 py_values: bool = False,
                 key_codes: np.ndarray | None = None,
                 key_dict: list | None = None) -> None:
        self.timestamps = timestamps
        self.values = values  # ndarray (numeric/vectorized) or list (opaque)
        self.py_values = py_values
        self.key_codes = key_codes
        self.key_dict = key_dict

    def __len__(self) -> int:
        return len(self.timestamps)

    def __repr__(self) -> str:  # debug aid only
        kind = ("f64" if isinstance(self.values, np.ndarray)
                else "opaque")
        keyed = "keyed" if self.key_codes is not None else "unkeyed"
        return f"RecordBatch(n={len(self)}, {kind}, {keyed})"

    # -- construction --------------------------------------------------------

    @classmethod
    def from_elements(cls, elements: Sequence[Element],
                      key_index: dict | None = None,
                      key_dict: list | None = None) -> "RecordBatch":
        """Encode a run of Elements.

        ``key_index``/``key_dict`` (both mutated) let several batches of
        one source share a key dictionary, so merged batches can gather
        codes directly.  Without a shared dictionary an all-``None`` key
        column is elided entirely.
        """
        n = len(elements)
        ts = np.fromiter((e.timestamp for e in elements),
                         dtype=np.float64, count=n)
        vals = [e.value for e in elements]
        numeric = set(map(type, vals)) == {float}
        values: Any = np.asarray(vals, dtype=np.float64) if numeric else vals
        shared = key_index is not None
        if not shared and all(e.key is None for e in elements):
            codes = None
            kd = None
        else:
            if not shared:
                key_index = {}
                key_dict = []
            kd = key_dict
            codes_list = []
            for e in elements:
                k = e.key
                code = key_index.get(k)
                if code is None and k not in key_index:
                    code = len(kd)
                    key_index[k] = code
                    kd.append(k)
                codes_list.append(code)
            codes = np.asarray(codes_list, dtype=np.int64)
        return cls(ts, values, py_values=numeric, key_codes=codes,
                   key_dict=kd)

    # -- decoding ------------------------------------------------------------

    def keys_list(self) -> list:
        if self.key_codes is None:
            return [None] * len(self)
        kd = self.key_dict
        return [kd[c] for c in self.key_codes.tolist()]

    def values_list(self) -> list:
        """Values as the per-item path would see them: Python floats for
        source-encoded numerics, numpy scalars for vectorized outputs,
        the original objects for the opaque path."""
        values = self.values
        if isinstance(values, np.ndarray):
            return values.tolist() if self.py_values else list(values)
        return values if isinstance(values, list) else list(values)

    def values_array(self) -> np.ndarray:
        """Values as one numpy array — the same array a batched
        vectorized operator would build from the element run."""
        values = self.values
        if isinstance(values, np.ndarray):
            return values
        return np.asarray(values)

    def to_elements(self) -> list[Element]:
        ts = self.timestamps.tolist()
        vals = self.values_list()
        if self.key_codes is None:
            return [Element(v, t) for v, t in zip(vals, ts)]
        kd = self.key_dict
        return [Element(v, t, kd[c])
                for v, t, c in zip(vals, ts, self.key_codes.tolist())]

    def extend_elements(self, out: list) -> None:
        out.extend(self.to_elements())

    # -- transforms (share unchanged columns) --------------------------------

    def _narrowed_keys(self, codes: np.ndarray) -> tuple[np.ndarray, list]:
        """Compact the key dictionary when a row subset can no longer
        reference most of it.

        Without this, every ``slice``/``compress`` inherits the full
        dictionary, so a long-running keyed job drags every key it has
        ever seen through every shuffle and spill.  When the surviving
        rows number fewer than half the table (so live codes are
        necessarily below half too), rebuild the table from the codes
        actually present.  The new dictionary holds the *same key
        objects* (no copies), so downstream identity-keyed caches and
        ``is``-based fast paths stay correct — they just miss once on
        the new, smaller dict.
        """
        kd = self.key_dict
        if kd is None or 2 * len(codes) >= len(kd):
            return codes, kd
        live, inverse = np.unique(codes, return_inverse=True)
        return inverse.astype(np.int64, copy=False), \
            [kd[c] for c in live.tolist()]

    def slice(self, i: int, j: int) -> "RecordBatch":
        """Zero-copy sub-range (numpy views; opaque lists are sliced).
        Narrow slices of wide-key batches compact the dictionary."""
        values = self.values
        vals = values[i:j]
        codes = self.key_codes
        kd = self.key_dict
        if codes is not None:
            codes, kd = self._narrowed_keys(codes[i:j])
        return RecordBatch(self.timestamps[i:j], vals,
                           py_values=self.py_values,
                           key_codes=codes, key_dict=kd)

    def compress(self, mask: np.ndarray) -> "RecordBatch":
        """Keep rows where ``mask`` is True; a heavy filter also
        compacts the key dictionary (see :meth:`_narrowed_keys`)."""
        values = self.values
        if isinstance(values, np.ndarray):
            vals: Any = values[mask]
        else:
            vals = [v for v, m in zip(values, mask) if m]
        codes = self.key_codes
        kd = self.key_dict
        if codes is not None:
            codes, kd = self._narrowed_keys(codes[mask])
        return RecordBatch(self.timestamps[mask], vals,
                           py_values=self.py_values,
                           key_codes=codes, key_dict=kd)

    def with_values(self, values: Any,
                    py_values: bool = False) -> "RecordBatch":
        return RecordBatch(self.timestamps, values, py_values=py_values,
                           key_codes=self.key_codes, key_dict=self.key_dict)

    def with_timestamps(self, timestamps: np.ndarray) -> "RecordBatch":
        return RecordBatch(timestamps, self.values,
                           py_values=self.py_values,
                           key_codes=self.key_codes, key_dict=self.key_dict)

    def with_keys(self, key_codes: np.ndarray,
                  key_dict: list) -> "RecordBatch":
        return RecordBatch(self.timestamps, self.values,
                           py_values=self.py_values, key_codes=key_codes,
                           key_dict=key_dict)


# -- mixed-item helpers (channels carry RecordBatch | StreamItem) -------------

def item_weight(item: Any) -> int:
    """Element weight of one channel item: markers and loose elements
    weigh 1, a batch weighs its row count — so per-item accounting
    (backpressure, drops, chaos schedules) is representation-blind."""
    return len(item) if type(item) is RecordBatch else 1


def items_weight(items: Iterable[Any]) -> int:
    return sum(len(item) if type(item) is RecordBatch else 1
               for item in items)


def take_prefix(items: Iterable[Any], k: int) -> list:
    """First ``k`` element-weights of ``items``, splitting a batch at
    the cut so the prefix holds exactly ``k`` records/markers."""
    out: list = []
    need = k
    for item in items:
        if need <= 0:
            break
        w = item_weight(item)
        if w <= need:
            out.append(item)
            need -= w
        else:
            out.append(item.slice(0, need))
            need = 0
    return out


def decode_items(items: Iterable[Any]) -> list[StreamItem]:
    """Expand batches back to Elements (markers pass through)."""
    out: list[StreamItem] = []
    for item in items:
        if type(item) is RecordBatch:
            item.extend_elements(out)
        else:
            out.append(item)
    return out


def elements_of(items: Iterable[Any]) -> list[Element]:
    """Only the data records of a mixed item sequence, decoded — what a
    sink receives."""
    out: list[Element] = []
    for item in items:
        if type(item) is RecordBatch:
            item.extend_elements(out)
        elif isinstance(item, Element):
            out.append(item)
    return out


class ColumnarStream:
    """A materialized source buffer, pre-encoded for columnar pulls.

    Positions are *element positions* — identical to indices into the
    flat per-item buffer — so checkpointed source offsets mean the same
    thing in every execution mode.  Watermarks (and any item without a
    columnar encoding) occupy one position each, exactly like the flat
    buffer.  ``slice`` returns zero-copy batch views interleaved with
    the markers of the range.
    """

    __slots__ = ("_segments", "_starts", "total")

    def __init__(self, items: Sequence[Any],
                 key_index: dict | None = None,
                 key_dict: list | None = None,
                 encode: Callable[..., RecordBatch] | None = None) -> None:
        encode = encode if encode is not None else RecordBatch.from_elements
        self._segments: list[tuple[int, Any]] = []
        self._starts: list[int] = []
        # Fast path: a pure-Element buffer (the common source shape)
        # encodes as one segment without the per-item walk.  Watermarks,
        # barriers and RecordBatches all lack one of the attributes the
        # encoder reads, so mixed buffers fall through cleanly.
        if items and type(items[0]) is Element:
            try:
                batch = (encode(items, key_index, key_dict)
                         if key_index is not None else encode(items))
            except AttributeError:
                batch = None
            if batch is not None:
                self._segments.append((0, batch))
                self._starts.append(0)
                self.total = len(batch)
                return
        pos = 0
        run: list[Element] = []

        def _flush_run() -> None:
            nonlocal pos
            if not run:
                return
            batch = encode(run, key_index, key_dict) \
                if key_index is not None else encode(run)
            self._starts.append(pos)
            self._segments.append((pos, batch))
            pos += len(run)
            run.clear()

        for item in items:
            if type(item) is RecordBatch:
                _flush_run()
                self._starts.append(pos)
                self._segments.append((pos, item))
                pos += len(item)
            elif isinstance(item, Element):
                run.append(item)
            else:  # watermark / barrier: one position
                _flush_run()
                self._starts.append(pos)
                self._segments.append((pos, item))
                pos += 1
        _flush_run()
        self.total = pos

    def __len__(self) -> int:
        return self.total

    def as_batch(self) -> RecordBatch | None:
        """The whole stream as one batch, or None when it holds markers
        (or is empty)."""
        if len(self._segments) == 1:
            item = self._segments[0][1]
            if type(item) is RecordBatch:
                return item
        return None

    def slice(self, pos: int, limit: int) -> list:
        """Items covering element positions [pos, min(limit, total))."""
        end = min(limit, self.total)
        if pos >= end:
            return []
        out: list = []
        i = bisect.bisect_right(self._starts, pos) - 1
        while i < len(self._segments):
            seg_start, item = self._segments[i]
            if seg_start >= end:
                break
            if type(item) is RecordBatch:
                lo = max(0, pos - seg_start)
                hi = min(len(item), end - seg_start)
                out.append(item if lo == 0 and hi == len(item)
                           else item.slice(lo, hi))
            else:
                out.append(item)
            i += 1
        return out
