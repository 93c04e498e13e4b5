"""Span tracing from outside the package.

`Tracer.install` replaces selected public functions of the treatise modules
(and `requests.Session.post`) with wrappers that record one span per call:
name, start, end, parent and root. Spans are kept in memory and written out
once, at the end of a traced run. Nothing under `src/` is modified; the
wrappers are removed again by `Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import requests

from treatise import backends, mockserver

# Public functions timed per layer, with an optional count taken from the
# return value (work done, as a number).
TRACED = {
    "raster": {
        "decode_pgm": lambda g: g.width * g.height,
        "regional_minima_markers": lambda m: m.count,
        "gradient_magnitude": None,
        "watershed": None,
        "extract_segments": len,
        "trace_contour": None,
    },
    "catalog": {
        "validate_record": None,
        "record_to_bytes": None,
        "write_sidecar": len,
        "read_sidecar": None,
    },
    "pipeline": {
        "run_pipeline": None,
        "enrich_labels": None,
        "build_label_vocabulary": None,
    },
    "retrieval": {
        "index_record": None,
        "save_index": None,
        "load_index": None,
        "expand_query": None,
        "search": None,
    },
    "lexicon": {"load_glossary": None, "expand_terms": None},
    "ontology": {"load_ontology": None},
    "evaluation": {"evaluate": None, "match_detections": lambda m: len(m.pairs)},
}
LAYERS = ("raster", "catalog", "lexicon", "ontology", "backends", "mockserver",
          "pipeline", "retrieval", "evaluation", "cli")


@dataclass
class Span:
    id: int
    parent: int | None
    root: int | None
    name: str
    t0: float
    t1: float = 0.0
    thread: int = 0
    count: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1e3


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.posts: list[tuple] = []  # (root id, url, body, response bytes)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Span | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        # a pool thread's outermost span attaches to the running operation
        parent = stack[-1].id if stack else self._current_root()
        span = Span(next(self._ids), parent, self._current_root(), name, time.perf_counter(),
                    thread=threading.get_ident())
        stack.append(span)
        return span

    def _current_root(self) -> int | None:
        stack = self._stack()
        if stack:
            return stack[0].root
        return self._root.id if self._root else None

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def operation(self, name: str, **attrs):
        """Root span around one benchmark operation (a CLI call)."""
        span = self._open(name)
        span.root, span.attrs = span.id, attrs
        self._root = span
        try:
            yield span
        finally:
            self._root = None
            self._close(span)

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                span.count = count(result)
            return result
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "treatise" or n.startswith("treatise.")]
        for layer, funcs in TRACED.items():
            mod = sys.modules[f"treatise.{layer}"]
            for fname, count in funcs.items():
                orig = getattr(mod, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig, count)
                # rebind every import site, e.g. cli.write_sidecar
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, attr, wrapper)
        self._patch(backends.BackendClient, "call",
                    self._wrap("backends.call", backends.BackendClient.call, None))
        post = requests.Session.post
        tracer = self

        @functools.wraps(post)
        def counted_post(session, url, data=None, **kwargs):
            resp = post(session, url, data=data, **kwargs)
            tracer.posts.append((tracer._current_root(), url, bytes(data or b""),
                                 len(resp.content)))
            return resp
        self._patch(requests.Session, "post", counted_post)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "root": s.root,
                                     "name": s.name, "start": s.t0, "end": s.t1,
                                     "thread": s.thread, "count": s.count,
                                     **({"attrs": s.attrs} if s.attrs else {})}) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    """q-th percentile (inclusive interpolation); 0 for no samples."""
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


RASTER_STEPS = ("decode_pgm", "regional_minima_markers", "gradient_magnitude",
                "watershed", "extract_segments", "trace_contour")
# Pages whose raster spans are also reported on their own: many small basins
# against a few large ones.
RASTER_PAGES = ("noise256", "figures512")
HEAVY_STEPS = ("regional_minima_markers", "watershed", "extract_segments")


def layer_metrics(tracer: Tracer, workers: int) -> dict[str, float]:
    """Per-layer metrics from the spans of benchmark operations. Times are
    means per call in ms unless named otherwise; spans outside any operation
    (the benchmark's own checks) are ignored."""
    spans = [s for s in tracer.spans if s.root is not None]
    roots = {s.id: s for s in spans if s.id == s.root}
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def calls(name, phases=None):
        return [s for s in named.get(name, ())
                if phases is None or roots[s.root].attrs.get("phase") in phases]

    def ms(name):
        return mean(s.ms for s in calls(name))

    def counted(name):
        return mean(s.count for s in calls(name))

    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None and s.parent != s.id:
            kids.setdefault(s.parent, []).append(s)
    m: dict[str, float] = {}

    for step in RASTER_STEPS:
        m[f"raster.{step}_ms"] = ms(f"raster.{step}")
    m["raster.pixels"] = counted("raster.decode_pgm")
    m["raster.markers"] = counted("raster.regional_minima_markers")
    m["raster.segments"] = counted("raster.extract_segments")
    for page in RASTER_PAGES:
        for step in HEAVY_STEPS:
            m[f"raster.{page}_{step}_ms"] = mean(
                s.ms for s in calls(f"raster.{step}") if roots[s.root].attrs.get("page", "")
                .endswith(f"/{page}.pgm"))

    writes = calls("catalog.write_sidecar", ("A", "B"))
    m["catalog.validate_record_ms"] = ms("catalog.validate_record")
    m["catalog.validate_calls_per_record"] = (
        len(calls("catalog.validate_record", ("A", "B"))) / len(writes) if writes else 0.0)
    m["catalog.record_to_bytes_ms"] = ms("catalog.record_to_bytes")
    m["catalog.write_sidecar_ms"] = ms("catalog.write_sidecar")
    m["catalog.read_sidecar_ms"] = ms("catalog.read_sidecar")
    m["catalog.sidecar_bytes"] = counted("catalog.write_sidecar")

    images = len(calls("pipeline.run_pipeline", ("A", "B")))
    call_ms = [s.ms for s in calls("backends.call", ("A", "B"))]
    posts = [p for p in tracer.posts if p[0] in roots
             and roots[p[0]].attrs.get("phase") in ("A", "B")]
    m["backends.calls"] = len(call_ms) / images if images else 0.0
    m["backends.attempts"] = len(posts) / images if images else 0.0
    m["backends.call_p50_ms"] = median(call_ms)
    m["backends.call_p90_ms"] = percentile(call_ms, 90)
    m["backends.request_bytes"] = mean(len(p[2]) for p in posts)
    m["backends.response_bytes"] = mean(p[3] for p in posts)
    # server compute: the mock's pure response function on the captured bodies
    compute = []
    for _, url, body, _ in posts[:300]:
        t0 = time.perf_counter()
        mockserver.mock_response(url.rsplit("/", 1)[1], body)
        compute.append((time.perf_counter() - t0) * 1e3)
    m["mockserver.mock_response_ms"] = median(compute)
    m["mockserver.transport_ms"] = m["backends.call_p50_ms"] - median(compute)
    m["mockserver.stop_ms"] = 0.0  # measured by the labeled workload

    runs = calls("pipeline.run_pipeline")
    m["pipeline.run_pipeline_ms"] = mean(s.ms for s in runs)
    m["pipeline.enrich_labels_ms"] = ms("pipeline.enrich_labels")
    m["pipeline.self_ms"] = mean(
        s.ms - 1e3 * _covered((k.t0, k.t1) for k in kids.get(s.id, ())
                              if k.layer in ("backends", "raster", "catalog"))
        for s in runs)
    m["pipeline.build_label_vocabulary_s"] = ms("pipeline.build_label_vocabulary") / 1e3

    corpus = [r for r in roots.values() if r.attrs.get("phase") == "B"
              and r.name == "cli.pipeline"]
    corpus_ids = {r.id for r in corpus}
    busy = sum(s.t1 - s.t0 for s in runs if s.root in corpus_ids)
    wall = sum(r.t1 - r.t0 for r in corpus)
    m["cli.corpus_wall_s"] = median(r.t1 - r.t0 for r in corpus)
    m["cli.parallel_efficiency"] = busy / (wall * workers) if wall else 0.0

    full = [r for r in roots.values() if r.attrs.get("op") == "full"]
    build = sorted((s for s in named.get("retrieval.index_record", ())
                    if full and s.root == full[0].id), key=lambda s: s.t0)
    tenth = max(len(build) // 10, 1)
    m["retrieval.index_record_ms"] = ms("retrieval.index_record")
    m["retrieval.index_late_over_early"] = (
        mean(s.ms for s in build[-tenth:]) / mean(s.ms for s in build[:tenth])
        if build else 0.0)
    for fn in ("save_index", "load_index", "expand_query", "search"):
        m[f"retrieval.{fn}_ms"] = ms(f"retrieval.{fn}")
    # snapshot sizes, measured by the query workload
    m["retrieval.docs"] = m["retrieval.postings"] = m["retrieval.snapshot_bytes"] = 0.0
    m["lexicon.load_glossary_ms"] = ms("lexicon.load_glossary")
    m["lexicon.expand_terms_ms"] = ms("lexicon.expand_terms")
    m["ontology.load_ontology_ms"] = ms("ontology.load_ontology")
    m["evaluation.evaluate_ms"] = ms("evaluation.evaluate")
    m["evaluation.match_detections_ms"] = ms("evaluation.match_detections")
    evals = [r for r in roots.values() if r.name == "cli.eval"]
    m["evaluation.pairs"] = (  # matched pairs per eval call
        sum(s.count for s in calls("evaluation.match_detections")) / len(evals)
        if evals else 0.0)

    # Share of all operation time each layer spends in its own code: a
    # span's self time is its interval minus what its child spans cover.
    # Pool threads overlap, so on corpus calls the shares can sum to more
    # than 1.
    own = {s.id: (s.t1 - s.t0) - _covered((k.t0, k.t1) for k in kids.get(s.id, ()))
           for s in spans}
    total = sum(r.t1 - r.t0 for r in roots.values())
    for layer in LAYERS:
        if layer != "mockserver":
            m[f"{layer}.self_share"] = sum(own[s.id] for s in spans if s.layer == layer) / total
    m["trace.spans"] = len(spans)
    return m
