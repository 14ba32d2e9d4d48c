"""Spans around calls into the pipeline's layers, recorded from outside.

The benchmark never edits the program. It wraps the public functions of
each layer module in place (``setattr(module, name, wrapper)``), so the
calls that :func:`repro.runner.build_world` and the streaming sink make
internally are recorded too: they look the function up on the module at
call time.

Each span records its name, start, end, parent, thread, and the Spark
jobs and tasks that ran under it. Jobs are attributed with a Spark job
group that is unique to the span; that works for jobs the calling thread
submits, not for those of a streaming query's execution thread, whose
numbers come from :class:`StreamProgress` instead.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field

from pyspark.sql.streaming import StreamingQuery, StreamingQueryListener

#: Module → functions wrapped in place. These are the ones the program
#: itself calls inside build_world and the streaming sink; calls the
#: benchmark makes directly get explicit spans that also cover the Spark
#: action forcing their lazy result.
WRAPPED = {
    "repro.iot.sensor": ["simulate_readings_pdf"],
    "repro.lorawan.network": ["receptions_pdf", "ttn_dedup"],
    "repro.lorawan.mqtt": ["land_messages"],
    "repro.ingest.stream": ["run_pipeline", "start_ingest", "start_live_aggregate"],
    "repro.tsdb.store": ["write"],
    "repro.runner": ["build_world"],
}

LAYERS = ("iot", "lorawan", "ingest", "tsdb", "core", "dataport", "runner")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: str
    start: float
    end: float = 0.0
    jobs: list = field(default_factory=list)
    tasks: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per benchmark run."""

    def __init__(self, spark):
        self._sc = spark.sparkContext
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list[Span] = []
        self.spans: list[Span] = []
        self.queries: list[StreamingQuery] = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = self._local.stack
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        sp, prev_group = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp, prev_group)

    def _open(self, name: str) -> tuple[Span, object]:
        stack = self._stack()
        on_main = threading.current_thread() is threading.main_thread()
        if stack:
            parent = stack[-1].id
        elif not on_main:
            # Work on a streaming thread is caused by the ingest call the
            # main thread is blocked in (ingest.stream.run_pipeline), if any.
            blocking = [sp for sp in list(self._main_stack) if layer_of(sp.name) == "ingest"]
            parent = blocking[-1].id if blocking else None
        else:
            parent = None
        sp = Span(
            id=next(self._ids),
            name=name,
            parent=parent,
            thread=threading.current_thread().name,
            start=time.perf_counter(),
        )
        prev_group = None
        if on_main:
            prev_group = self._sc.getLocalProperty("spark.jobGroup.id")
            self._sc.setLocalProperty("spark.jobGroup.id", f"bench-span-{sp.id}")
        stack.append(sp)
        return sp, prev_group

    def _close(self, sp: Span, prev_group) -> None:
        sp.end = time.perf_counter()
        self._stack().pop()
        if threading.current_thread() is threading.main_thread():
            self._sc.setLocalProperty("spark.jobGroup.id", prev_group)
            tracker = self._sc.statusTracker()
            sp.jobs = list(tracker.getJobIdsForGroup(f"bench-span-{sp.id}"))
            sp.tasks = sum(
                st.numTasks
                for jid in sp.jobs
                if (job := tracker.getJobInfo(jid)) is not None
                for sid in job.stageIds
                if (st := tracker.getStageInfo(sid)) is not None
            )
        with self._lock:
            self.spans.append(sp)

    # -- wrapping module attributes ------------------------------------
    def install(self, modules: dict) -> None:
        """Wrap ``module.fn`` for every entry of ``modules`` (see WRAPPED)."""
        for mod_name, fns in modules.items():
            mod = importlib.import_module(mod_name)
            prefix = mod_name.removeprefix("repro.")
            for fn in fns:
                setattr(mod, fn, self._wrap(getattr(mod, fn), f"{prefix}.{fn}"))

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if isinstance(out, StreamingQuery):
                with self._lock:
                    self.queries.append(out)
            return out

        return wrapper

    # -- results -------------------------------------------------------
    def inclusive_jobs(self) -> dict[int, int]:
        """Span id → Spark jobs run under it, nested spans included."""
        children: dict[int | None, list[Span]] = {}
        for sp in self.spans:
            children.setdefault(sp.parent, []).append(sp)
        memo: dict[int, int] = {}

        def total(sp: Span) -> int:
            if sp.id not in memo:
                memo[sp.id] = len(sp.jobs) + sum(total(c) for c in children.get(sp.id, []))
            return memo[sp.id]

        for sp in self.spans:
            total(sp)
        return memo

    def layer_self_seconds(self) -> dict[str, float]:
        """Per layer: wall time in its spans minus nested other-layer spans.

        A span nested in a span of the same layer adds nothing, so a
        layer's time is counted once however deep its calls go.
        """
        by_id = {sp.id: sp for sp in self.spans}
        out = {layer: 0.0 for layer in LAYERS}
        for sp in self.spans:
            layer = layer_of(sp.name)
            parent = by_id.get(sp.parent)
            if parent is not None and layer_of(parent.name) == layer:
                continue
            out[layer] += sp.seconds
            if parent is not None:
                out[layer_of(parent.name)] -= sp.seconds
        return out


class StreamProgress(StreamingQueryListener):
    """Collects every query-progress event, keyed by query id.

    Events reach Python asynchronously, after the batch they describe;
    :meth:`wait_for` blocks until a query's batches up to a given id have
    been reported.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self.progress: dict[str, list] = {}

    def onQueryStarted(self, event) -> None:
        pass

    def onQueryProgress(self, event) -> None:
        p = event.progress
        with self._cond:
            self.progress.setdefault(str(p.id), []).append(p)
            self._cond.notify_all()

    def onQueryIdle(self, event) -> None:
        pass

    def onQueryTerminated(self, event) -> None:
        pass

    def wait_for(self, query, timeout_s: float = 30.0) -> None:
        """Block until the progress of ``query``'s last batch has arrived."""
        last = query.lastProgress
        want = -1 if last is None else last["batchId"]
        qid = str(query.id)
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while True:
                got = self.progress.get(qid, [])
                if want < 0 or any(p.batchId >= want for p in got):
                    return
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError(f"no progress event for batch {want}")
                self._cond.wait(left)
