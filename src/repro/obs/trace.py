"""Span-based tracing: one structured account of where a run spends its time.

The tracer produces a *process-wide, thread-safe event stream*: every
finished span becomes one plain dict (the NDJSON schema below) appended to
the stream in completion order.  Spans nest per thread -- entering a span
pushes it on a thread-local stack, so ``parent_id`` linkage is correct even
when several runs trace concurrently in different threads.

Tracing is **off by default** and the disabled path is deliberately free:
``span()`` then returns a shared no-op context manager (no clock read, no
allocation beyond the call itself), so instrumented hot loops cost one
attribute check per span site and routed results stay bit-identical.

Two ways to turn it on:

* ``tracer.enable()`` -- global: every span from every thread is recorded
  until ``disable()``.  What ``repro route --trace-out`` uses under the hood
  (via a session).
* ``tracer.session()`` -- scoped: spans *of the entering thread* are
  recorded for the duration of the ``with`` block and collected on the
  session object, isolated from concurrent sessions in other threads.  What
  the api runner (``run(spec, trace=True)``) and the service's
  ``X-Repro-Trace`` opt-in use, so per-request traces never interleave.

NDJSON event schema (one JSON object per line, completion order)::

    {"name": "dme.pass", "span_id": 7, "parent_id": 3, "thread": 1234,
     "start": 12.345678, "seconds": 0.00123, "attrs": {"index": 2, ...}}

``start`` is ``time.perf_counter()`` at span entry -- monotonic and
comparable *within* one trace, not across processes.  ``attrs`` merges the
keyword attributes given at span creation, any ``set(...)`` updates and the
``add(...)`` counter totals accumulated while the span was open.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, IO, Iterable, List, Optional, Union

__all__ = [
    "Tracer",
    "TraceSession",
    "StageSpans",
    "get_tracer",
    "span",
    "add",
]


class _NoopSpan:
    """The shared disabled-path span: every operation is a no-op.

    ``seconds`` stays 0.0; callers that need wall time regardless of tracing
    (the runner's stage stats) measure it themselves via :class:`StageSpans`.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def add(self, name: str, value: Union[int, float] = 1) -> None:
        pass

    def set(self, **attrs: Any) -> None:
        pass

    @property
    def seconds(self) -> float:
        return 0.0


_NOOP = _NoopSpan()


class _Span:
    """A live (recording) span; created only when tracing is active."""

    __slots__ = (
        "_tracer", "name", "span_id", "parent_id", "attrs",
        "_start", "seconds", "_sessions",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = tracer._next_id()
        self.parent_id: Optional[int] = None
        self._start = 0.0
        #: Wall seconds; measured on exit unless a :class:`StageSpans` stage
        #: injected its own (identical-by-construction) measurement first.
        self.seconds: Optional[float] = None
        self._sessions: tuple = ()

    # ------------------------------------------------------------------
    def add(self, name: str, value: Union[int, float] = 1) -> None:
        """Accumulate a counter attribute (``nodes_merged``, ``cache_hits``...)."""
        self.attrs[name] = self.attrs.get(name, 0) + value

    def set(self, **attrs: Any) -> None:
        """Attach/overwrite attributes discovered while the span is open."""
        self.attrs.update(attrs)

    # ------------------------------------------------------------------
    def __enter__(self) -> "_Span":
        stack = self._tracer._stack()
        if stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        # Captured at entry so a session that ends mid-span still owns it.
        self._sessions = self._tracer._thread_sessions()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        end = time.perf_counter()
        if self.seconds is None:
            self.seconds = end - self._start
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - unbalanced exit, drop up to this span
            while stack:
                if stack.pop() is self:
                    break
        self._tracer._record(self)
        return False

    def to_event(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread": threading.get_ident(),
            "start": self._start,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
        }


class TraceSession:
    """Spans recorded by one thread between ``__enter__`` and ``__exit__``.

    Obtained from :meth:`Tracer.session`; after the ``with`` block
    ``session.events`` holds the finished span events of the session's
    thread, in completion order, isolated from other concurrent sessions.
    """

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer
        self.events: List[Dict[str, Any]] = []

    def __enter__(self) -> "TraceSession":
        self._tracer._push_session(self)
        return self

    def __exit__(self, *exc_info) -> bool:
        self._tracer._pop_session(self)
        return False


class Tracer:
    """The process-wide span recorder (see the module docstring)."""

    def __init__(self) -> None:
        self._enabled = False
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._id = 0

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether *this thread* is currently recording spans."""
        return self._enabled or bool(self._thread_sessions())

    def enable(self) -> None:
        """Record every span from every thread until :meth:`disable`."""
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def session(self) -> TraceSession:
        """A scoped, per-thread recording window (see :class:`TraceSession`)."""
        return TraceSession(self)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Union[_Span, _NoopSpan]:
        """Open a span; returns the shared no-op when tracing is off."""
        if not self._enabled and not self._thread_sessions():
            return _NOOP
        return _Span(self, name, attrs)

    def add(self, name: str, value: Union[int, float] = 1) -> None:
        """Accumulate a counter on the current (innermost) span, if any."""
        if not self._enabled and not self._thread_sessions():
            return
        stack = self._stack()
        if stack:
            stack[-1].add(name, value)

    # ------------------------------------------------------------------
    # Event stream
    # ------------------------------------------------------------------
    def events(self) -> List[Dict[str, Any]]:
        """A copy of the global event stream (completion order)."""
        with self._lock:
            return list(self._events)

    def drain(self) -> List[Dict[str, Any]]:
        """Return and clear the global event stream."""
        with self._lock:
            events, self._events = self._events, []
        return events

    def reset(self) -> None:
        """Drop all recorded events (activation state is untouched)."""
        with self._lock:
            self._events.clear()

    def export_ndjson(self, target: Union[str, IO[str]]) -> int:
        """Write the global event stream as NDJSON; returns the line count."""
        events = self.events()
        write_ndjson(events, target)
        return len(events)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _next_id(self) -> int:
        with self._lock:
            self._id += 1
            return self._id

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread_sessions(self) -> tuple:
        return getattr(self._local, "sessions", ())

    def _push_session(self, session: TraceSession) -> None:
        self._local.sessions = self._thread_sessions() + (session,)

    def _pop_session(self, session: TraceSession) -> None:
        self._local.sessions = tuple(
            s for s in self._thread_sessions() if s is not session
        )

    def _record(self, span: "_Span") -> None:
        event = span.to_event()
        with self._lock:
            self._events.append(event)
        for session in span._sessions:
            session.events.append(event)


#: The process-wide tracer instance every instrumented module shares.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide :class:`Tracer`."""
    return _TRACER


def span(name: str, **attrs: Any):
    """``get_tracer().span(...)`` -- the form instrumentation sites use."""
    return _TRACER.span(name, **attrs)


def add(name: str, value: Union[int, float] = 1) -> None:
    """``get_tracer().add(...)`` -- counter on the current span, if tracing."""
    _TRACER.add(name, value)


def write_ndjson(events: Iterable[Dict[str, Any]], target: Union[str, IO[str]]) -> None:
    """Write ``events`` to ``target`` (path or text file object) as NDJSON."""
    if hasattr(target, "write"):
        for event in events:
            target.write(json.dumps(event, sort_keys=True) + "\n")
        return
    with open(target, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Stage timing that feeds both RunResult.stats and the trace
# ----------------------------------------------------------------------
class StageSpans:
    """Named stage timing that is a span *and* a stats entry at once.

    The api runner's stage timer: every stage accumulates wall seconds into
    ``self.seconds`` (two ``perf_counter`` reads, re-entry accumulates),
    and -- when tracing is active -- additionally emits a span carrying *the
    same measurement*, so exported NDJSON stage totals agree with
    ``RunResult.stats`` by construction, not within tolerance.

    Usage::

        stages = StageSpans()
        with stages.stage("delay_seconds", "run.delay"):
            skew = skew_report(tree)
        stages.seconds  # {"delay_seconds": 0.0123}
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    def stage(self, key: str, name: Optional[str] = None, **attrs: Any) -> "_StageSpan":
        return _StageSpan(self, key, name or key, attrs)


class _StageSpan:
    __slots__ = ("_stages", "_key", "_name", "_attrs", "_span", "_start")

    def __init__(
        self, stages: StageSpans, key: str, name: str, attrs: Dict[str, Any]
    ) -> None:
        self._stages = stages
        self._key = key
        self._name = name
        self._attrs = attrs

    def __enter__(self):
        self._span = _TRACER.span(self._name, **self._attrs)
        self._span.__enter__()
        self._start = time.perf_counter()
        return self._span

    def __exit__(self, *exc_info) -> bool:
        elapsed = time.perf_counter() - self._start
        seconds = self._stages.seconds
        seconds[self._key] = seconds.get(self._key, 0.0) + elapsed
        if self._span is not _NOOP:
            # Inject the stage's own measurement so the span and the stats
            # entry are the *same number*.
            self._span.seconds = elapsed
        self._span.__exit__(*exc_info)
        return False
