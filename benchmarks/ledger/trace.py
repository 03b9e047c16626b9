"""Span tracer behind ``run.py --trace``.

The program carries no tracing code.  :meth:`Tracer.install_store`
wraps public functions of :mod:`repro` at each layer boundary, from this
file, and :meth:`Tracer.uninstall` puts the originals back; nothing is
wrapped unless ``--trace`` is given.  Every call becomes one
:class:`Span` -- name, start, end, parent span, request id -- kept in
memory and written out as JSONL at the end.  The parent is found through
a ``contextvars`` variable, so a span opened in a task that
``asyncio.gather`` spawned still names the span that spawned it.

A span's self time is its duration minus the part of it covered by its
child spans.  Sync layers (gf, code, codec) nest strictly inside their
callers, so their self time is exact CPU time.  An async span's duration
also covers the time its coroutine sat suspended: waiting for a lock,
for the data plane, or for the event loop while the other client ran.
The async wrapper therefore also times each resume of the coroutine.
Their sum is the span's *busy* time and ``wait = duration - busy``; its
*CPU* time is busy time minus the busy time of children that ran inline
in the same task.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import inspect
import itertools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter as _now
from typing import Callable, Iterable, Optional, Sequence

#: Id of the span that a span opened now nests under.
_CURRENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "ledger_span", default=None)
#: Index of the client operation a span serves; the load generator sets
#: it.
REQUEST: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "ledger_request", default=None)


def _task_id() -> int:
    try:
        task = asyncio.current_task()
    except RuntimeError:
        return 0
    return id(task) if task is not None else 0


class Span:
    """One traced call."""

    __slots__ = ("id", "name", "start", "end", "parent", "request", "task",
                 "busy", "nbytes", "count")

    def __init__(self, id: int, name: str, start: float, end: float,
                 parent: Optional[int] = None,
                 request: Optional[int] = None, task: int = 0,
                 busy: Optional[float] = None, nbytes: int = 0,
                 count: Optional[int] = None) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.task = task
        #: Time spent running (sync spans: the whole duration).
        self.busy = end - start if busy is None else busy
        #: Bytes the call processed (kernel planes, payloads, RPC bodies).
        self.nbytes = nbytes
        #: A count the call returned (stripes found, stripes repaired).
        self.count = count

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class _Timed:
    """Awaitable that drives a coroutine as one span, timing each resume."""

    __slots__ = ("tracer", "name", "coro", "nbytes", "count")

    def __init__(self, tracer: "Tracer", name: str, coro, nbytes: int = 0,
                 count: Optional[Callable] = None) -> None:
        self.tracer, self.name, self.coro = tracer, name, coro
        self.nbytes, self.count = nbytes, count

    def __await__(self):
        coro = self.coro
        span_id = next(self.tracer._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        start = _now()
        busy = 0.0
        value, error, result = None, None, None
        try:
            while True:
                resumed = _now()
                try:
                    if error is None:
                        yielded = coro.send(value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    result = stop.value
                    return result
                finally:
                    busy += _now() - resumed
                try:
                    value, error = (yield yielded), None
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # noqa: BLE001 - thrown into coro
                    value, error = None, exc
        finally:
            end = _now()
            try:
                _CURRENT.reset(token)
            except ValueError:  # closed from another context at teardown
                pass
            count = (self.count(result)
                     if self.count is not None and result is not None
                     else None)
            self.tracer.spans.append(Span(
                span_id, self.name, start, end, parent, REQUEST.get(),
                _task_id(), busy, self.nbytes, count))


class _TimedEnter:
    """Async context manager whose ``__aenter__`` is one span (a wait)."""

    __slots__ = ("tracer", "name", "cm")

    def __init__(self, tracer: "Tracer", name: str, cm) -> None:
        self.tracer, self.name, self.cm = tracer, name, cm

    async def __aenter__(self):
        return await _Timed(self.tracer, self.name, self.cm.__aenter__())

    async def __aexit__(self, *exc_info):
        return await self.cm.__aexit__(*exc_info)


def _arg_nbytes(index: int) -> Callable[[tuple], int]:
    def nbytes(args: tuple) -> int:
        return args[index].nbytes if len(args) > index else 0
    return nbytes


def _symbols_nbytes(args: tuple) -> int:
    return sum(symbol.nbytes for symbol in args[1]) if len(args) > 1 else 0


def _grid_nbytes(args: tuple) -> int:
    if len(args) < 2:
        return 0
    return sum(symbol.nbytes for row in args[1] for symbol in row
               if symbol is not None)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[type, str, object, bool]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span_id = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        start = _now()
        try:
            yield
        finally:
            end = _now()
            _CURRENT.reset(token)
            self.spans.append(Span(span_id, name, start, end, parent,
                                   REQUEST.get(), _task_id()))

    def _patch(self, owner: type, attr: str, replacement) -> None:
        had = attr in owner.__dict__
        self._patches.append((owner, attr, owner.__dict__.get(attr), had))
        setattr(owner, attr, replacement)

    def wrap(self, owner: type, attr: str, name: str,
             nbytes: Optional[Callable[[tuple], int]] = None,
             count: Optional[Callable] = None) -> None:
        """Record every call of ``owner.attr`` (sync or async) as ``name``."""
        fn = getattr(owner, attr)
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                return await _Timed(tracer, name, fn(*args, **kwargs),
                                    nbytes(args) if nbytes else 0, count)
            self._patch(owner, attr, async_wrapper)
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(tracer._ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(span_id)
            start = _now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _now()
                _CURRENT.reset(token)
                tracer.spans.append(Span(
                    span_id, name, start, end, parent, REQUEST.get(),
                    _task_id(), None, nbytes(args) if nbytes else 0,
                    count(result) if count and result is not None
                    else None))
        self._patch(owner, attr, wrapper)

    def wrap_enter(self, owner: type, attr: str, name: str) -> None:
        """Record the ``__aenter__`` of the context managers
        ``owner.attr`` returns (a lock acquisition: pure wait)."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedEnter(tracer, name, fn(*args, **kwargs))
        self._patch(owner, attr, wrapper)

    def wrap_future(self, owner: type, attr: str, name: str) -> None:
        """Record calls of ``owner.attr(request) -> Future`` from the call
        until the future resolves (an RPC round trip)."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(self_, request, *args, **kwargs):
            span_id = next(tracer._ids)
            parent, req, task = _CURRENT.get(), REQUEST.get(), _task_id()
            start = _now()
            future = fn(self_, request, *args, **kwargs)
            busy = _now() - start

            def done(_future) -> None:
                payload = request.payload
                if isinstance(payload, asyncio.Future):
                    payload = (payload.result() if payload.done()
                               and not payload.cancelled()
                               and payload.exception() is None else b"")
                tracer.spans.append(Span(span_id, name, start, _now(),
                                         parent, req, task, busy,
                                         len(payload)))
            future.add_done_callback(done)
            return future
        self._patch(owner, attr, wrapper)

    def install_store(self, code) -> None:
        """Wrap every store layer boundary; ``code`` is the cluster's
        stripe code (its class gets the ``code.*`` spans)."""
        from repro.gf.regions import RegionOps
        from repro.store.cluster import (GetTicket, KeyShards, PutTicket,
                                         StoreCluster)
        from repro.store.codec import ObjectCodec
        from repro.store.node import StoreNode
        from repro.store.rpc import RpcClient

        for attr, index in (("matrix_vector_plane", 2),
                            ("matrix_vector_planes", 2),
                            ("mult_xor_plane", 1),
                            ("xor_accumulate_plane", 1)):
            self.wrap(RegionOps, attr, "gf", nbytes=_arg_nbytes(index))
        self.wrap(type(code), "encode", "code.encode", nbytes=_symbols_nbytes)
        self.wrap(type(code), "decode", "code.decode", nbytes=_grid_nbytes)
        self.wrap(ObjectCodec, "encode_object", "codec.encode")
        self.wrap(ObjectCodec, "extract_payload", "codec.read")
        self.wrap(ObjectCodec, "decode_stripe", "codec.read")
        self.wrap(ObjectCodec, "rebuild_columns", "codec.rebuild")
        self.wrap(StoreCluster, "put", "cluster.put")
        self.wrap(StoreCluster, "get_submit", "cluster.get_submit")
        self.wrap(StoreCluster, "repair_once", "cluster.repair_once",
                  count=int)
        self.wrap(StoreCluster, "damaged_stripes", "cluster.damaged_stripes",
                  count=len)
        self.wrap_enter(KeyShards, "lock", "cluster.lock")
        self.wrap(StoreNode, "put_chunk", "node.put")
        self.wrap(StoreNode, "put_chunk_deferred", "node.put")
        self.wrap(StoreNode, "fetch_chunk", "node.fetch")
        self.wrap(GetTicket, "data", "dataplane.get")
        self.wrap(PutTicket, "settled", "dataplane.put")
        self.wrap_future(RpcClient, "call", "rpc.call")

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


# --------------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------------- #
def covered_time(start: float, end: float,
                 intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> dict[int, tuple[float, float, float]]:
    """Per span id: ``(self, own_busy, covered)``.

    ``self`` is the duration minus the part covered by child spans
    (``covered``); ``own_busy`` is the busy time minus the busy time of
    children that ran inline in the same task.  For a sync span both
    equal its exclusive CPU time.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        kids = children.get(span.id, ())
        covered = covered_time(span.start, span.end,
                               ((kid.start, kid.end) for kid in kids))
        inline = sum(kid.busy for kid in kids if kid.task == span.task)
        out[span.id] = (span.duration - covered,
                        max(0.0, span.busy - inline), covered)
    return out


def _percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def layer_metrics(spans: Sequence[Span], wall_s: float) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced phase.

    Only the outermost span of a layer counts (``decode_stripe`` calling
    ``extract_payload`` is one ``codec.read``).  ``*.share`` is busy time
    over the phase's wall time ``wall_s``: the event loop runs on one
    thread, so the shares of disjoint sync layers add up to at most 1.
    """
    info = self_times(spans)
    name_of = {span.id: span.name for span in spans}
    groups: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if name_of.get(span.parent) != span.name:
            groups[span.name].append(span)

    def busy(name):
        return sum(span.duration for span in groups[name])

    def self_s(name):
        return sum(info[span.id][0] for span in groups[name])

    def own(name):
        return sum(info[span.id][1] for span in groups[name])

    def wait(name):
        return sum(span.duration - span.busy for span in groups[name])

    def mbps(name):
        seconds = busy(name)
        nbytes = sum(span.nbytes for span in groups[name])
        return nbytes / seconds / 1e6 if seconds > 0 else 0.0

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    m: dict[str, float] = {}
    m["gf.calls"] = len(groups["gf"])
    m["gf.busy_s"] = busy("gf")
    m["gf.mbps"] = mbps("gf")
    for op in ("encode", "decode"):
        name = f"code.{op}"
        m[f"{name}.calls"] = len(groups[name])
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.mbps"] = mbps(name)
    m["code.encode.self_s"] = self_s("code.encode")
    m["codec.encode.busy_s"] = busy("codec.encode")
    m["codec.encode.self_s"] = self_s("codec.encode")
    m["codec.encode.self_share"] = ratio(m["codec.encode.self_s"],
                                         m["codec.encode.busy_s"])
    m["codec.read.busy_s"] = busy("codec.read")
    m["codec.read.self_s"] = self_s("codec.read")
    m["codec.rebuild.busy_s"] = busy("codec.rebuild")

    # An async span's self time is its own CPU plus the time it sat
    # suspended with no child span open: waiting for the event loop while
    # the other client ran.  ``cpu_s`` is the first part alone, and
    # ``work_share`` the share of the wall its children and CPU explain.
    for name in ("cluster.put", "cluster.get_submit"):
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.cpu_s"] = own(name)
        m[f"{name}.wait_s"] = wait(name)
    puts = groups["cluster.put"]
    m["cluster.put.work_share"] = ratio(
        sum(info[span.id][2] + info[span.id][1] for span in puts),
        sum(span.duration for span in puts))
    locks = groups["cluster.lock"]
    m["cluster.lock.wait_s"] = busy("cluster.lock")
    m["cluster.lock.wait_p99_ms"] = 1e3 * _percentile(
        [span.duration for span in locks], 99)
    m["cluster.damaged_stripes.calls"] = len(groups["cluster.damaged_stripes"])
    m["cluster.damaged_stripes.busy_s"] = busy("cluster.damaged_stripes")

    # A repair pass attempts the stripes its first scan found damaged.
    first_scan: dict[int, Span] = {}
    for span in groups["cluster.damaged_stripes"]:
        seen = first_scan.get(span.parent)
        if seen is None or span.start < seen.start:
            first_scan[span.parent] = span
    passes = [span for span in groups["cluster.repair_once"] if span.count]
    attempted = sum(first_scan[span.id].count or 0 for span in passes
                    if span.id in first_scan)
    m["cluster.repair.passes"] = len(passes)
    m["cluster.repair.stripes"] = sum(span.count for span in passes)
    m["cluster.repair.useful_ratio"] = ratio(m["cluster.repair.stripes"],
                                             attempted)

    m["dataplane.put_wait_s"] = wait("dataplane.put")
    m["dataplane.get_wait_s"] = wait("dataplane.get")
    rpcs = groups["rpc.call"]
    m["rpc.calls"] = len(rpcs)
    m["rpc.bytes_out"] = sum(span.nbytes for span in rpcs)
    m["rpc.round_trip_p50_ms"] = 1e3 * _percentile(
        [span.duration for span in rpcs], 50)
    m["bench.busy_s"] = busy("bench")

    for share, seconds in (
            ("gf.share", "gf.busy_s"),
            ("codec.encode.share", "codec.encode.busy_s"),
            ("codec.read.share", "codec.read.busy_s"),
            ("codec.rebuild.share", "codec.rebuild.busy_s"),
            ("cluster.put.cpu_share", "cluster.put.cpu_s"),
            ("cluster.get_submit.cpu_share", "cluster.get_submit.cpu_s"),
            ("cluster.lock.wait_share", "cluster.lock.wait_s"),
            ("cluster.damaged_stripes.share",
             "cluster.damaged_stripes.busy_s"),
            ("dataplane.put_wait_share", "dataplane.put_wait_s"),
            ("dataplane.get_wait_share", "dataplane.get_wait_s"),
            ("bench.share", "bench.busy_s")):
        m[share] = ratio(m[seconds], wall_s)
    return m
