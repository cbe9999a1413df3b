"""In-memory spans around calls into the program's layers.

The traced run replaces a layer's public functions with thin wrappers
that record a span (name, start, end, parent, thread) or a call count,
then puts the originals back. Nothing in ``src/`` knows about this: the
untraced run executes the program exactly as shipped.

Every span and count is tagged with the *unit* that was open when it
started: one linkage job (``job-3``) or one set-up repetition
(``setup-0``). Spans of one unit share that id, whichever thread
recorded them (the networked workload runs its servers on a second
thread).

Asynchronous functions are only counted, never spanned: coroutines of
different connections interleave on one event-loop thread, so a span
left open across an ``await`` would adopt unrelated children.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import threading
import time
from collections import Counter, defaultdict

#: Span-name prefix -> the repro module (layer) the wrapped function lives in.
LAYERS = {
    "cli": "repro.tools.link_cli",
    "anonymize": "repro.anonymize",
    "block": "repro.linkage.blocking",
    "linkage": "repro.linkage.hybrid",
    "select": "repro.pipeline",
    "smc": "repro.pipeline",
    "leftovers": "repro.pipeline",
    "crypto": "repro.crypto",
    "protocol": "repro.protocol",
    "net": "repro.net",
}


def layer_of(span_name: str) -> str:
    """The layer a span name belongs to (its first dotted component)."""
    return LAYERS[span_name.split(".", 1)[0]]


class SpanRecord:
    """One finished (or open) span."""

    __slots__ = ("name", "unit", "thread", "parent", "start", "end")

    def __init__(self, name, unit, thread, parent, start):
        self.name = name
        self.unit = unit
        self.thread = thread
        self.parent = parent
        self.start = start
        self.end = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _OpenSpan:
    __slots__ = ("_tracer", "_name", "_record")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        tracer = self._tracer
        stack = tracer._stack()
        parent = stack[-1] if stack else None
        record = SpanRecord(
            self._name, tracer.unit, threading.get_ident(), parent,
            time.perf_counter(),
        )
        stack.append(record)
        self._record = record
        return record

    def __exit__(self, exc_type, exc, tb):
        record = self._record
        record.end = time.perf_counter()
        stack = self._tracer._stack()
        if stack and stack[-1] is record:
            stack.pop()
        self._tracer.spans.append(record)
        return False


class Tracer:
    """Spans, per-unit counts and unit boundaries, all kept in memory."""

    def __init__(self):
        self.spans: list[SpanRecord] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        #: unit id -> (start, end) on the ``perf_counter`` clock.
        self.units: dict[str, tuple[float, float]] = {}
        self.unit: str | None = None
        self._local = threading.local()
        self._patches: list[tuple[object, str, bool, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording ---------------------------------------------------------
    def span(self, name: str) -> _OpenSpan:
        return _OpenSpan(self, name)

    def add(self, key: str, amount: float = 1) -> None:
        """Add to a count of the current unit."""
        self.counts[self.unit][key] += amount

    def begin_unit(self, unit: str) -> float:
        self.unit = unit
        return time.perf_counter()

    def end_unit(self, started: float) -> None:
        self.units[self.unit] = (started, time.perf_counter())
        self.unit = None

    # -- instrumentation ---------------------------------------------------
    def instrument(self, owner, attribute: str, name=None, observe=None):
        """Wrap ``owner.attribute`` until :meth:`restore`.

        *name* is a span name, or a callable ``(args, kwargs) -> name``;
        ``None`` only counts calls (under ``calls.<attribute>``).
        *observe* is called as ``observe(tracer, args, kwargs, result)``
        after each call, to read counts off the layer's return value.
        Coroutine functions are always count-only.
        """
        original, own = _lookup(owner, attribute)
        function = original.__func__ if isinstance(original, classmethod) else original
        if inspect.iscoroutinefunction(function):
            wrapper = self._counting_async(function, f"calls.{attribute}")
        elif name is None:
            wrapper = self._counting(function, f"calls.{attribute}")
        else:
            wrapper = self._spanning(function, name, observe)
        if isinstance(original, classmethod):
            wrapper = classmethod(wrapper)
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, own, original))

    def restore(self) -> None:
        """Put every wrapped function back, most recent first."""
        while self._patches:
            owner, attribute, own, original = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def _spanning(self, function, name, observe):
        tracer = self
        naming = name if callable(name) else None

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span_name = naming(args, kwargs) if naming else name
            with _OpenSpan(tracer, span_name):
                result = function(*args, **kwargs)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    def _counting(self, function, key):
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            tracer.add(key)
            return function(*args, **kwargs)

        return wrapper

    def _counting_async(self, function, key):
        tracer = self

        @functools.wraps(function)
        async def wrapper(*args, **kwargs):
            tracer.add(key)
            return await function(*args, **kwargs)

        return wrapper

    # -- analysis ----------------------------------------------------------
    def unit_spans(self, unit: str) -> list[SpanRecord]:
        return [span for span in self.spans if span.unit == unit]

    def self_times(self, unit: str) -> dict[str, float]:
        """Seconds each layer spent in *unit* outside its child spans."""
        spans = self.unit_spans(unit)
        child_time: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                child_time[id(span.parent)] += span.duration
        layers: dict[str, float] = defaultdict(float)
        for span in spans:
            layers[layer_of(span.name)] += span.duration - child_time[id(span)]
        return dict(layers)

    def coverage(self, unit: str) -> float:
        """Share of the unit's wall time inside at least one layer span."""
        started, ended = self.units[unit]
        intervals = sorted(
            (max(span.start, started), min(span.end, ended))
            for span in self.unit_spans(unit)
        )
        covered = 0.0
        reach = started
        for low, high in intervals:
            low = max(low, reach)
            if high > low:
                covered += high - low
                reach = high
        return covered / (ended - started)

    def total(self, unit: str, prefix: str) -> float:
        """Summed duration of the unit's spans named *prefix* or below it."""
        return sum(
            span.duration
            for span in self.unit_spans(unit)
            if span.name == prefix or span.name.startswith(prefix + ".")
        )

    def median_duration(self, name: str) -> float:
        """Median duration of every span called *name*, 0 if there is none."""
        durations = [span.duration for span in self.spans if span.name == name]
        return statistics.median(durations) if durations else 0.0


def _lookup(owner, attribute: str):
    """The raw attribute (not a bound method) and whether *owner* holds it."""
    if inspect.isclass(owner):
        for klass in owner.__mro__:
            if attribute in vars(klass):
                return vars(klass)[attribute], klass is owner
        raise AttributeError(f"{owner.__name__} has no attribute {attribute!r}")
    return getattr(owner, attribute), True
