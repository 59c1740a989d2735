"""The traced run: spans around calls into each layer, self times, and
the per-layer metrics derived from them.

Spans are recorded from the benchmark's own files: :class:`Patches`
wraps each layer's public function at the attribute its callers look
up (``repro.net.protocol.encode_request``, ``PequodServer.scan``, ...)
and restores the originals afterwards.  The program itself is not
changed.  A span is ``(name, start, end, parent, op_id)``; spans live in
memory and are written out when the run ends.

Load is one closed loop on one thread, so at most one client operation
is in flight and the open spans form a single stack even across
``await``: a server-side span opened while a client call waits for its
reply nests under that call.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from array import array
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence, Tuple

#: (span name, module, class or None for a module function, attribute,
#: what to count as the span's bytes: "result", "arg0" or None).
TARGETS = (
    ("net.rpc_call", "repro.net.rpc_client", "RpcClient", "call", None),
    ("net.encode_request", "repro.net.protocol", None, "encode_request", "result"),
    ("net.encode_response", "repro.net.protocol", None, "encode_response", "result"),
    ("net.decode_message", "repro.net.protocol", None, "decode_message", "arg0"),
    ("server.scan", "repro.core.server", "PequodServer", "scan", None),
    ("server.put", "repro.core.server", "PequodServer", "put", None),
    ("server.apply_batch", "repro.core.server", "PequodServer", "apply_batch", None),
    ("server.settle_cdc", "repro.core.server", "PequodServer", "settle_cdc", None),
    ("executor.validate_range", "repro.core.executor", "JoinEngine", "validate_range", None),
    ("executor.apply_put", "repro.core.executor", "JoinEngine", "apply_put", None),
    ("executor.apply_batch", "repro.core.executor", "JoinEngine", "apply_batch", None),
    ("store.table_put", "repro.store.table", "Table", "put", None),
    ("store.install_many", "repro.store.table", "Table", "install_many", None),
    ("store.scan", "repro.store.store", "OrderedStore", "scan", None),
    ("eviction.maybe_evict", "repro.core.eviction", "EvictionManager", "maybe_evict", None),
    ("persist.log_put", "repro.persist.manager", "PersistenceManager", "log_put", None),
    ("persist.log_ops", "repro.persist.manager", "PersistenceManager", "log_ops", None),
    ("persist.checkpoint", "repro.persist.manager", "PersistenceManager", "checkpoint", None),
    ("cdc.record", "repro.cdc.feed", "ChangeFeed", "record", None),
    ("cdc.backing_put", "repro.backing.database", "BackingDatabase", "put", None),
    ("cdc.pump_step", "repro.cdc.pump", "CdcPump", "step", None),
)


class SpanRecorder:
    """Spans in parallel arrays; a stack of open spans gives parents.

    Recording happens only while ``active``; patched functions called
    outside that window (set-up, the correctness check) pass straight
    through.
    """

    def __init__(self) -> None:
        self.active = False
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.bytes: Dict[str, int] = {}
        self._stack: List[int] = []
        self._op_id = -1

    def name_index(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open_root(self, name: str, op_id: int) -> int:
        """Open the span of one client operation (or barrier)."""
        self._op_id = op_id
        return self.open(self.name_index(name))

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name_id.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self._op_id)
        self.end.append(0)
        stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        if self._stack.pop() != idx:
            raise RuntimeError("span nesting violated: spans closed out of order")

    def add_bytes(self, name: str, n: int) -> None:
        self.bytes[name] = self.bytes.get(name, 0) + n

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: str) -> None:
        """Write every span as gzipped TSV: name, start_ns, end_ns,
        parent index (-1 for a root), op id."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top_id\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{names[self.name_id[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                    f"{self.parent[i]}\t{self.op[i]}\n"
                )


def _wrap(rec: SpanRecorder, name: str, fn, count_bytes: Optional[str]):
    name_id = rec.name_index(name)
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            if not rec.active:
                return await fn(*args, **kwargs)
            idx = rec.open(name_id)
            try:
                return await fn(*args, **kwargs)
            finally:
                rec.close(idx)
        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if count_bytes == "result":
            rec.add_bytes(name, len(result))
        elif count_bytes == "arg0":
            rec.add_bytes(name, len(args[0]))
        return result
    return traced


class Patches:
    """Every target wrapped to record into one recorder.

    :meth:`install` and :meth:`remove` swap the attributes, so a run can
    alternate traced and untraced windows.  A deployment built while
    the patches are installed keeps wrappers wherever it stored a bound
    method (the CDC feed's backpressure hook); those pass straight
    through while the recorder is inactive.
    """

    def __init__(self, rec: SpanRecorder) -> None:
        self._slots = []
        for name, module, owner, attr, count_bytes in TARGETS:
            obj = importlib.import_module(module)
            if owner is not None:
                obj = getattr(obj, owner)
                original = obj.__dict__[attr]
            else:
                original = getattr(obj, attr)
            self._slots.append(
                (obj, attr, original, _wrap(rec, name, original, count_bytes)))

    def install(self) -> None:
        for obj, attr, _, wrapper in self._slots:
            setattr(obj, attr, wrapper)

    def remove(self) -> None:
        for obj, attr, original, _ in self._slots:
            setattr(obj, attr, original)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def self_times(
    starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]
) -> List[int]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent and overlapping children count
    once, so nested and adjacent spans both come out right.
    """
    n = len(starts)
    order: Sequence[int] = range(n)
    if any(starts[i] > starts[i + 1] for i in range(n - 1)):
        order = sorted(range(n), key=lambda i: (starts[i], -ends[i]))
    cover = [0] * n
    until = [0] * n
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], until[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            cover[p] += hi - lo
            until[p] = hi
    return [ends[i] - starts[i] - cover[i] for i in range(n)]


@dataclass
class Layer:
    count: int = 0
    self_ns: int = 0
    total_ns: int = 0


def aggregate(rec: SpanRecorder) -> Dict[str, Layer]:
    """Per span name: call count, summed self time, summed duration."""
    selfs = self_times(rec.start, rec.end, rec.parent)
    out: Dict[str, Layer] = {name: Layer() for name in rec.names}
    names = rec.names
    for i, own in enumerate(selfs):
        layer = out[names[rec.name_id[i]]]
        layer.count += 1
        layer.self_ns += own
        layer.total_ns += rec.end[i] - rec.start[i]
    return out


def stall_max_ns(rec: SpanRecorder, name: str) -> int:
    """The longest root span (client op) containing a ``name`` span."""
    target = rec.names.index(name) if name in rec.names else -1
    worst = 0
    for i in range(len(rec)):
        if rec.name_id[i] != target:
            continue
        root = i
        while rec.parent[root] >= 0:
            root = rec.parent[root]
        worst = max(worst, rec.end[root] - rec.start[root])
    return worst


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Counter deltas; labelled series (``name{...}``) are summed under
    their bare family name."""
    out: Dict[str, float] = {}
    for key in set(before) | set(after):
        family = key.split("{", 1)[0]
        out[family] = out.get(family, 0.0) + after.get(key, 0.0) - before.get(key, 0.0)
    return out


#: A counter that moved proves the layer ran, so its wrapper must fire.
EVIDENCE = (
    (("server.scan",), "op_scan"),
    (("server.put",), "op_put"),
    (("server.apply_batch",), "op_batch"),
    (("executor.validate_range",), "op_scan"),
    (("executor.apply_batch",), "batch_applies"),
    (("store.table_put",), "puts"),
    (("store.install_many",), "batched_installs"),
    (("store.scan",), "op_scan"),
    (("eviction.maybe_evict",), "op_scan"),
    (("persist.log_put", "persist.log_ops"), "persist_wal_records"),
    (("persist.checkpoint",), "persist_checkpoints"),
    (("cdc.record",), "cdc_records"),
    (("cdc.backing_put",), "cdc_records"),
    (("cdc.pump_step",), "cdc_batches_applied_total"),
    (("net.rpc_call", "net.encode_request", "net.encode_response",
      "net.decode_message"), "rpc_requests_total"),
)
#: Spans that must match a counter exactly.
EXACT = (
    ("server.scan", "op_scan"),
    ("cdc.record", "cdc_records"),
    ("store.table_put", "puts"),
    ("store.install_many", "batched_installs"),
)


def cross_check(layers: Dict[str, Layer], delta: Dict[str, float],
                write_through: bool) -> List[str]:
    """Span counts against the server's own counters over the same
    window.  Returns one line per disagreement."""
    problems = []

    def count(name: str) -> int:
        layer = layers.get(name)
        return layer.count if layer else 0

    for name, counter in EXACT:
        if count(name) != delta.get(counter, 0):
            problems.append(
                f"{count(name)} {name} spans but {counter} moved by "
                f"{delta.get(counter, 0):g}"
            )
    evidence = list(EVIDENCE)
    if write_through:
        evidence.append((("executor.apply_put",), "op_put"))
    for names, counter in evidence:
        moved = delta.get(counter, 0)
        for name in names:
            if moved > 0 and count(name) == 0:
                problems.append(
                    f"wrapper {name} never fired though {counter} moved by {moved:g}"
                )
    return problems


#: Per-layer metrics: name -> (unit, better).
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "client.self_us_per_op": ("us", "lower"),
    "net.encode_us_per_op": ("us", "lower"),
    "net.encode_bytes_per_op": ("B", "lower"),
    "net.decode_us_per_op": ("us", "lower"),
    "net.decode_bytes_per_op": ("B", "lower"),
    "net.transport_us_per_op": ("us", "lower"),
    "server.scan_us_per_call": ("us", "lower"),
    "server.put_us_per_call": ("us", "lower"),
    "server.apply_batch_us_per_call": ("us", "lower"),
    "server.settle_cdc_us_per_call": ("us", "lower"),
    "executor.validate_us_per_read": ("us", "lower"),
    "executor.memo_hit_ratio": ("ratio", "higher"),
    "executor.recomputations_per_read": ("count", "lower"),
    "executor.pending_applied_per_read": ("count", "lower"),
    "executor.reads_recomputed_frac": ("ratio", "lower"),
    "executor.apply_us_per_write": ("us", "lower"),
    "executor.updaters_fired_per_write": ("count", "lower"),
    "executor.plan_fires_per_write": ("count", "lower"),
    "executor.outputs_installed_per_write": ("count", "lower"),
    "executor.source_keys_examined_per_install": ("count", "lower"),
    "store.install_us_per_write": ("us", "lower"),
    "store.scan_us_per_read": ("us", "lower"),
    "store.scanned_items_per_row_returned": ("ratio", "lower"),
    "eviction.maybe_evict_us_per_op": ("us", "lower"),
    "eviction.evictions_per_op": ("count", "lower"),
    "persist.wal_append_us_per_write": ("us", "lower"),
    "persist.wal_bytes_per_user_byte": ("ratio", "lower"),
    "persist.wal_syncs": ("count", "lower"),
    "persist.checkpoint_us_total": ("us", "lower"),
    "persist.checkpoint_stall_max_us": ("us", "lower"),
    "cdc.record_us_per_write": ("us", "lower"),
    "cdc.backing_put_us_per_write": ("us", "lower"),
    "cdc.pump_step_us_per_record": ("us", "lower"),
    "cdc.records_per_step": ("count", "higher"),
    "cdc.journal_bytes_per_user_byte": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "calib_ns": ("ns", "lower"),
}


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    rec: SpanRecorder,
    layers: Dict[str, Layer],
    delta: Dict[str, float],
    phase,
    untraced_ops_per_s: float,
    calib_ns: int,
) -> Dict[str, float]:
    """Every per-layer metric; a layer that did not run reads 0."""

    def self_us(*names: str) -> float:
        return sum(layers[n].self_ns for n in names if n in layers) / 1e3

    def calls(*names: str) -> int:
        return sum(layers[n].count for n in names if n in layers)

    def per_call(name: str) -> float:
        return _per(self_us(name), calls(name))

    ops, reads, writes = phase.ops, phase.reads, phase.writes
    user_bytes = phase.user_bytes
    roots = self_us("client.op", "client.settle_cdc")
    validations = delta.get("join_validations_total", 0.0)
    computed = delta.get("join_computes_total", 0.0) + delta.get(
        "join_recomputes_total", 0.0)
    records = delta.get("cdc_records_applied_total", 0.0) + delta.get(
        "cdc_records_skipped_total", 0.0)
    return {
        "client.self_us_per_op": _per(roots, ops),
        "net.encode_us_per_op": _per(self_us("net.encode_request", "net.encode_response"), ops),
        "net.encode_bytes_per_op": _per(
            rec.bytes.get("net.encode_request", 0) + rec.bytes.get("net.encode_response", 0), ops),
        "net.decode_us_per_op": _per(self_us("net.decode_message"), ops),
        "net.decode_bytes_per_op": _per(rec.bytes.get("net.decode_message", 0), ops),
        "net.transport_us_per_op": _per(self_us("net.rpc_call"), ops),
        "server.scan_us_per_call": per_call("server.scan"),
        "server.put_us_per_call": per_call("server.put"),
        "server.apply_batch_us_per_call": per_call("server.apply_batch"),
        "server.settle_cdc_us_per_call": per_call("server.settle_cdc"),
        "executor.validate_us_per_read": _per(self_us("executor.validate_range"), reads),
        "executor.memo_hit_ratio": _per(delta.get("validation_memo_hits", 0.0), validations),
        "executor.recomputations_per_read": _per(delta.get("recomputations", 0.0), reads),
        "executor.pending_applied_per_read": _per(delta.get("pending_applied", 0.0), reads),
        "executor.reads_recomputed_frac": _per(computed, reads),
        "executor.apply_us_per_write": _per(
            self_us("executor.apply_put", "executor.apply_batch"), writes),
        "executor.updaters_fired_per_write": _per(delta.get("updaters_fired", 0.0), writes),
        "executor.plan_fires_per_write": _per(delta.get("write_plan_fires", 0.0), writes),
        "executor.outputs_installed_per_write": _per(
            delta.get("outputs_installed", 0.0), writes),
        "executor.source_keys_examined_per_install": _per(
            delta.get("source_keys_examined", 0.0), delta.get("outputs_installed", 0.0)),
        "store.install_us_per_write": _per(
            self_us("store.table_put", "store.install_many"), writes),
        "store.scan_us_per_read": _per(self_us("store.scan"), reads),
        "store.scanned_items_per_row_returned": _per(
            delta.get("scanned_items", 0.0), phase.rows_returned),
        "eviction.maybe_evict_us_per_op": _per(self_us("eviction.maybe_evict"), ops),
        "eviction.evictions_per_op": _per(delta.get("evictions", 0.0), ops),
        "persist.wal_append_us_per_write": _per(
            self_us("persist.log_put", "persist.log_ops"), writes),
        "persist.wal_bytes_per_user_byte": _per(
            delta.get("persist_wal_appended_bytes", 0.0), user_bytes),
        "persist.wal_syncs": delta.get("persist_wal_syncs", 0.0),
        "persist.checkpoint_us_total": (
            layers["persist.checkpoint"].total_ns / 1e3
            if "persist.checkpoint" in layers else 0.0),
        "persist.checkpoint_stall_max_us": stall_max_ns(rec, "persist.checkpoint") / 1e3,
        "cdc.record_us_per_write": _per(self_us("cdc.record"), writes),
        "cdc.backing_put_us_per_write": _per(self_us("cdc.backing_put"), writes),
        "cdc.pump_step_us_per_record": _per(self_us("cdc.pump_step"), records),
        "cdc.records_per_step": _per(records, calls("cdc.pump_step")),
        "cdc.journal_bytes_per_user_byte": _per(
            delta.get("cdc_journal_bytes", 0.0), user_bytes),
        "trace.overhead_frac": (
            1.0 - phase.ops_per_s / untraced_ops_per_s if untraced_ops_per_s else 0.0),
        "calib_ns": float(calib_ns),
    }
