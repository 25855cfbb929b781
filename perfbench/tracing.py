"""Per-layer spans recorded by wrapping the program's public entry points.

The program is not edited: :func:`install` replaces a handful of class
attributes and module globals with thin wrappers that report to a
:class:`Recorder`, and :meth:`Recorder.uninstall` puts the originals
back.  Each wrapped call records a :class:`Span`
(name, start, end, parent span) in memory under the id of the request
the calling thread is serving.  A span's *self time* is its duration
minus the time its child spans cover.

Request binding:

- ``ServingRuntime.submit`` binds the calling thread to the request's
  ``trace_id`` for the duration of the call (closed-loop workloads);
- ``ServingRuntime.submit_batch`` runs a whole batch on one dispatch
  thread, so each ``SpeakQL.correct_transcription`` call inside it is
  bound to the next request of the batch (checked by text), and the
  time it waited behind its batch-mates is recorded;
- ``MicroBatcher.submit`` stamps when a request entered the batcher,
  so the wait until its batch started is its coalescing wait.

``char_edit_distance`` is counted rather than spanned: it runs thousands
of times per request and a span each would swamp what it measures.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict, deque

from stats import mean

#: Spans whose self time is work of a named layer; whatever a request's
#: wall time holds beyond these (and its serving waits) is unaccounted.
WORK_SPANS = frozenset({
    "asr.transcribe",
    "structure.mask",
    "structure.search",
    "literal.determine",
    "serving.span_decode",
})


class Span:
    __slots__ = ("request", "name", "start", "end", "parent", "phase",
                 "attrs", "children")

    def __init__(self, request, name, parent, phase=None):
        self.request = request
        self.name = name
        self.parent = parent
        self.phase = phase
        self.attrs = None
        self.children = 0.0
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children


class Recorder:
    """In-memory span store; every thread writes only its own lists."""

    def __init__(self) -> None:
        self.enabled = False
        self.round = 0
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._thread_spans: list[list[Span]] = []
        self._thread_counts: list[dict] = []
        self.enqueued: dict = {}
        self.coalesce_wait: dict = {}
        self.batch_wait: dict = {}
        self.batch_sizes: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- thread state --------------------------------------------------------

    def _state(self):
        tls = self._tls
        if not hasattr(tls, "spans"):
            tls.spans = []
            tls.counts = defaultdict(int)
            tls.stack = []
            tls.request = None
            tls.batch = None
            tls.batch_start = 0.0
            with self._lock:
                self._thread_spans.append(tls.spans)
                self._thread_counts.append(tls.counts)
        return tls

    def reset(self) -> None:
        with self._lock:
            for spans in self._thread_spans:
                spans.clear()
            for counts in self._thread_counts:
                counts.clear()
        self.enqueued.clear()
        self.coalesce_wait.clear()
        self.batch_wait.clear()
        self.batch_sizes.clear()

    def key(self, trace_id):
        return (self.round, trace_id)

    def open(self, name: str, phase=None) -> Span:
        tls = self._state()
        parent = tls.stack[-1] if tls.stack else None
        span = Span(tls.request, name, parent, phase)
        tls.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        tls = self._tls
        tls.stack.pop()
        if span.parent is not None:
            span.parent.children += span.duration
        tls.spans.append(span)

    def count(self, name: str) -> None:
        tls = self._state()
        tls.counts[(tls.request, name)] += 1

    def innermost(self, *names):
        for span in reversed(self._state().stack):
            if span.name in names:
                return span
        return None

    # -- results -------------------------------------------------------------

    def spans(self) -> list[Span]:
        with self._lock:
            return [span for spans in self._thread_spans for span in spans]

    def counts(self) -> dict:
        merged: dict = defaultdict(int)
        with self._lock:
            for counts in self._thread_counts:
                for key, value in counts.items():
                    merged[key] += value
        return merged


def _spanned(rec: Recorder, name: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return original(*args, **kwargs)
        span = rec.open(name)
        try:
            return original(*args, **kwargs)
        finally:
            rec.close(span)

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap the layer entry points so that they report to ``rec``."""
    from repro.asr.engine import SimulatedAsrEngine
    from repro.core.clauses import ClauseSpeakQL
    from repro.core.pipeline import SpeakQL
    from repro.literal import voting
    from repro.literal.determiner import LiteralDeterminer
    from repro.serving.batcher import MicroBatcher
    from repro.serving.runtime import ServingRuntime
    from repro.structure import masking
    from repro.structure.search import StructureSearchEngine

    _patch = rec.patch

    # serving ----------------------------------------------------------------
    submit = ServingRuntime.submit

    @functools.wraps(submit)
    def traced_submit(self, query, *args, **kwargs):
        if not rec.enabled:
            return submit(self, query, *args, **kwargs)
        tls = rec._state()
        previous = tls.request
        tls.request = rec.key(query.trace_id)
        span = rec.open("serving.submit")
        try:
            return submit(self, query, *args, **kwargs)
        finally:
            rec.close(span)
            tls.request = previous

    _patch(ServingRuntime, "submit", traced_submit)

    submit_batch = ServingRuntime.submit_batch

    @functools.wraps(submit_batch)
    def traced_submit_batch(self, queries):
        if not rec.enabled:
            return submit_batch(self, queries)
        queries = list(queries)
        tls = rec._state()
        started = time.perf_counter()
        rec.batch_sizes.append(len(queries))
        for query in queries:
            key = rec.key(query.trace_id)
            if key in rec.enqueued:
                rec.coalesce_wait[key] = started - rec.enqueued[key]
        tls.batch = deque(queries)
        tls.batch_start = started
        try:
            return submit_batch(self, queries)
        finally:
            tls.batch = None

    _patch(ServingRuntime, "submit_batch", traced_submit_batch)

    batcher_submit = MicroBatcher.submit

    @functools.wraps(batcher_submit)
    async def traced_batcher_submit(self, request):
        if rec.enabled:
            rec.enqueued[rec.key(request.trace_id)] = time.perf_counter()
        return await batcher_submit(self, request)

    _patch(MicroBatcher, "submit", traced_batcher_submit)

    # core -------------------------------------------------------------------
    correct = SpeakQL.correct_transcription

    @functools.wraps(correct)
    def traced_correct(self, transcription, *args, **kwargs):
        if not rec.enabled:
            return correct(self, transcription, *args, **kwargs)
        tls = rec._state()
        previous = tls.request
        if tls.batch:
            query = tls.batch.popleft()
            if query.text != transcription:
                raise RuntimeError("batch binding lost its request")
            tls.request = rec.key(query.trace_id)
            rec.batch_wait[tls.request] = time.perf_counter() - tls.batch_start
        span = rec.open("core.correct_transcription")
        try:
            return correct(self, transcription, *args, **kwargs)
        finally:
            rec.close(span)
            tls.request = previous

    _patch(SpeakQL, "correct_transcription", traced_correct)
    _patch(SpeakQL, "query_from_speech",
           _spanned(rec, "core.query_from_speech", SpeakQL.query_from_speech))
    _patch(SpeakQL, "process_asr_result",
           _spanned(rec, "core.process_asr_result", SpeakQL.process_asr_result))
    # The runner-up phase has no public entry point of its own; without
    # this hook its work is still timed, inside core.process_asr_result.
    if hasattr(SpeakQL, "_structure_alternatives"):
        _patch(SpeakQL, "_structure_alternatives",
               _spanned(rec, "core.runner_up", SpeakQL._structure_alternatives))

    # literal ----------------------------------------------------------------
    determine = LiteralDeterminer.determine

    @functools.wraps(determine)
    def traced_determine(self, *args, **kwargs):
        if not rec.enabled:
            return determine(self, *args, **kwargs)
        owner = rec.innermost(
            "core.runner_up", "core.process_asr_result",
            "core.correct_transcription", "serving.span_decode",
        )
        if owner is None or owner.name == "core.correct_transcription":
            phase = "rank0"
        elif owner.name == "core.runner_up":
            phase = "runner_up"
        elif owner.name == "serving.span_decode":
            phase = "span"
        else:
            seen = owner.attrs or 0
            owner.attrs = seen + 1
            phase = "rank0" if seen == 0 else "nbest"
        span = rec.open("literal.determine", phase)
        try:
            return determine(self, *args, **kwargs)
        finally:
            rec.close(span)

    _patch(LiteralDeterminer, "determine", traced_determine)

    distance = voting.char_edit_distance

    @functools.wraps(distance)
    def counted_distance(a, b):
        if rec.enabled:
            rec.count("literal.distance_evals")
        return distance(a, b)

    _patch(voting, "char_edit_distance", counted_distance)

    # asr / structure ----------------------------------------------------------
    _patch(SimulatedAsrEngine, "transcribe",
           _spanned(rec, "asr.transcribe", SimulatedAsrEngine.transcribe))

    preprocess = masking.preprocess_transcription
    traced_preprocess = _spanned(rec, "structure.mask", preprocess)
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if name.startswith("repro.") and (
            getattr(module, "preprocess_transcription", None) is preprocess
        ):
            _patch(module, "preprocess_transcription", traced_preprocess)

    search = StructureSearchEngine.search

    @functools.wraps(search)
    def traced_search(self, masked, k=1):
        if not rec.enabled:
            return search(self, masked, k)
        span = rec.open("structure.search")
        try:
            results, stats = search(self, masked, k)
        finally:
            rec.close(span)
        span.attrs = (
            bool(stats.result_cache_hit),
            stats.dp_cells,
            stats.nodes_visited,
            stats.candidates_scored,
        )
        return results, stats

    _patch(StructureSearchEngine, "search", traced_search)
    _patch(ClauseSpeakQL, "decode_clause",
           _spanned(rec, "serving.span_decode", ClauseSpeakQL.decode_clause))


def write_spans(rec: Recorder, path) -> int:
    """Write every recorded span as one JSON line; returns how many."""
    spans = rec.spans()
    ids = {id(span): number for number, span in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as out:
        for number, span in enumerate(spans):
            out.write(json.dumps({
                "id": number,
                "request": list(span.request) if span.request else None,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": ids.get(id(span.parent)),
                "phase": span.phase,
            }) + "\n")
    return len(spans)


def layer_metrics(rec: Recorder, walls: dict, responses: dict) -> dict[str, float]:
    """Per-layer figures of one traced run.

    ``walls`` maps a request key to its end-to-end seconds as the
    workload measured it; ``responses`` maps the same key to its
    :class:`~repro.api.QueryResponse`.  Times are mean milliseconds per
    request; search work counters are means per uncached search.
    """
    keys = list(walls)
    per: dict = {key: defaultdict(float) for key in keys}
    searches = hits = uncached = 0
    dp_cells = nodes = scored = 0
    for span in rec.spans():
        bucket = per.get(span.request)
        if bucket is None:
            continue
        name = span.name
        if name == "structure.search":
            hit, cells, visited, candidates = span.attrs
            searches += 1
            bucket["searches"] += 1
            if hit:
                hits += 1
            else:
                uncached += 1
                dp_cells += cells
                nodes += visited
                scored += candidates
            if _in_runner_up(span):
                bucket["runner_up.search"] += span.self_time
            else:
                bucket["structure.search"] += span.self_time
        elif name == "literal.determine":
            bucket["literal.determine"] += span.self_time
            bucket["literal." + span.phase] += span.self_time
            bucket["determine_calls"] += 1
        elif name in ("core.runner_up", "serving.span_decode"):
            # Whole phases: reported with everything they contain.
            bucket[name] += span.duration
            bucket[name + ".calls"] += 1
        elif name == "structure.mask" and _in_runner_up(span):
            bucket["runner_up.mask"] += span.self_time
        else:
            bucket[name] += span.self_time
        if name in WORK_SPANS:
            bucket["work"] += span.self_time
    for (request, name), value in rec.counts().items():
        if request in per:
            per[request][name] += value
    for key in keys:
        bucket = per[key]
        bucket["serving.coalesce_wait"] = rec.coalesce_wait.get(key, 0.0)
        bucket["serving.batch_wait"] = rec.batch_wait.get(key, 0.0)
        bucket["unaccounted"] = (
            walls[key]
            - bucket["work"]
            - bucket["serving.coalesce_wait"]
            - bucket["serving.batch_wait"]
        )

    def ms(name):
        return mean([per[key][name] for key in keys]) * 1000.0

    def each(name):
        return mean([per[key][name] for key in keys])

    reused = sum(len(responses[key].reused_spans) for key in keys)
    decoded = sum(per[key]["serving.span_decode.calls"] for key in keys)
    return {
        "asr.transcribe_ms": ms("asr.transcribe"),
        "structure.mask_ms": ms("structure.mask"),
        "structure.search_ms": ms("structure.search"),
        "structure.searches": each("searches"),
        "structure.cache_hit_ratio": hits / searches if searches else 0.0,
        "structure.dp_cells": dp_cells / uncached if uncached else 0.0,
        "structure.nodes_visited": nodes / uncached if uncached else 0.0,
        "structure.candidates_scored": scored / uncached if uncached else 0.0,
        "literal.determine_ms": ms("literal.determine"),
        "literal.rank0_ms": ms("literal.rank0"),
        "literal.nbest_ms": ms("literal.nbest"),
        "literal.runner_up_ms": ms("literal.runner_up"),
        "literal.determine_calls": each("determine_calls"),
        "literal.distance_evals": each("literal.distance_evals"),
        "core.runner_up_ms": ms("core.runner_up"),
        "core.unaccounted_ms": ms("unaccounted"),
        "serving.coalesce_wait_ms": ms("serving.coalesce_wait"),
        "serving.batch_size": mean(rec.batch_sizes),
        "serving.batch_wait_ms": ms("serving.batch_wait"),
        "serving.span_decode_ms": ms("serving.span_decode"),
        "serving.reused_span_ratio": (
            reused / (reused + decoded) if reused + decoded else 0.0
        ),
    }


def _in_runner_up(span: Span) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == "core.runner_up":
            return True
        parent = parent.parent
    return False
