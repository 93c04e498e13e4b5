"""Command-line entry point.

Subcommands: segment, pipeline, vocab, enrich, index, search, eval,
overlay, mock-serve, validate. Exit codes: 0 success, 1 usage error,
2 validation or data error, 3 backend or transport error. Diagnostics go
to standard error; data goes to files or standard output.

Configuration comes from a JSON file (default ./treatise.json when
present, or --config), overridden per stage by TREATISE_<STAGE>_URL
environment variables and per run by flags.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from contextlib import closing, suppress
from dataclasses import replace
from typing import NamedTuple

from . import evaluation, lexicon, ontology, parse_json, retrieval
from .backends import BackendError, check_endpoint, resolve_endpoints
from .catalog import (
    METHODS,
    SidecarValidationError,
    atomic_write,
    image_id_for,
    load_manifest,
    read_sidecar,
    render_overlay,
    sidecar_path,
    write_sidecar,
)
from .mockserver import MockBackendServer, load_fixture_table
from .pipeline import PipelineConfig, build_label_vocabulary, enrich_labels, run_pipeline
from .raster import decode_pgm, encode_pgm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3

_METHOD_NAMES = {m.lower(): m for m in METHODS}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this tool reserves 2 for data
    problems, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    """A required option is missing or out of range; exits EXIT_USAGE."""


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _read(kind: str, path: str, parse=None):
    """The bytes of an input file, or what `parse` makes of them; a ValueError
    from `parse` is raised again as `<kind> <path>: <message>`."""
    with open(path, "rb") as fh:
        if parse is None:
            return fh.read()
        try:
            return parse(fh.read())
        except ValueError as exc:
            raise ValueError(f"{kind} {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# configuration

# JSON type checks, by the name messages give the type; a bool is never a number
_JSON_TYPES = {
    "a string": lambda v: isinstance(v, str),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "an object": lambda v: isinstance(v, dict),
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
}

# each config key's JSON type; a key with a flag is named after its dest, for _opt
_CONFIG_KEYS = {
    "endpoints": "an object", "tag_vocabulary": "a list of strings",
    "max_tags": "an integer", "h": "an integer", "timeout": "a number",
    **dict.fromkeys(("method", "glossary", "ontology", "manifest", "index", "vocabulary",
                     "seg_stage", "domain_context", "language", "relief"), "a string"),
}


def _parse_config(data: bytes) -> dict:
    """A config file's object, each key checked against _CONFIG_KEYS."""
    cfg = parse_json(data)
    if not isinstance(cfg, dict):
        raise ValueError("top level must be an object")
    for key, value in cfg.items():
        kind = _CONFIG_KEYS.get(key)
        if kind is None:
            raise ValueError(f"{key!r} is not a config key")
        if not _JSON_TYPES[kind](value):
            raise ValueError(f"{key} must be {kind}")
    for key in ("glossary", "ontology", "manifest"):
        if key in cfg and not os.path.exists(cfg[key]):
            raise ValueError(f"{key} file {cfg[key]!r} does not exist")
    for stage, url in cfg.get("endpoints", {}).items():
        check_endpoint(stage, url)
    return cfg


def _load_config(args) -> dict:
    path = getattr(args, "config", None)
    if path is None and os.path.exists("treatise.json"):
        path = "treatise.json"
    return {} if path is None else _read("config", path, _parse_config)


def _opt(args, cfg: dict, name: str, required: str | None = None):
    """The flag's value, else the config key's, else None, or else `required`
    raised as a UsageError."""
    value = getattr(args, name, None)
    if value is None:
        value = cfg.get(name)
    if value is None and required is not None:
        raise UsageError(required)
    return value


def _given(args, cfg: dict, **params) -> dict:
    """The options a flag or the config sets, as keyword arguments; defaults stay in the callee."""
    values = {param: _opt(args, cfg, name) for param, name in params.items()}
    return {param: value for param, value in values.items() if value is not None}


def _knowledge(args, cfg: dict, name: str, required: str | None = None):
    """The glossary or ontology file that the flag or config names, loaded, or None."""
    path = _opt(args, cfg, name, required)
    if path is None:
        return None
    load = lexicon.load_glossary if name == "glossary" else ontology.load_ontology
    return _read(name, path, load)


def _pipeline_config(args, cfg: dict) -> PipelineConfig:
    method_name = _opt(args, cfg, "method", "no method given (flag --method or config key)")
    method = _METHOD_NAMES.get(method_name.lower())
    if method is None:
        raise ValueError(f"unknown method {method_name!r}")
    given = _given(args, cfg, endpoints="endpoints", segmentation_stage="seg_stage",
                   vocabulary_path="vocabulary", tag_vocabulary="tag_vocabulary",
                   max_tags="max_tags", timeout="timeout", language="language",
                   h_threshold="h", relief="relief")
    if "tag_vocabulary" in given:
        given["tag_vocabulary"] = tuple(given["tag_vocabulary"])
    return PipelineConfig(method=method, **given)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_segment(args) -> int:
    cfg = _load_config(args)
    config = PipelineConfig(method="native",
                            **_given(args, cfg, relief="relief", h_threshold="h"))
    record = run_pipeline(_read("image", args.infile), config, source_path=args.infile)
    out = args.out or sidecar_path(args.infile)
    write_sidecar(record, out)
    _err(f"{len(record.segments)} segments -> {out}")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    cfg = _load_config(args)
    config = _pipeline_config(args, cfg)
    glossary = _knowledge(args, cfg, "glossary")
    onto = _knowledge(args, cfg, "ontology")
    manifest_path = _opt(args, cfg, "manifest")
    if args.infile is None and manifest_path is None:
        raise UsageError("need --in IMAGE or --manifest MANIFEST")
    if args.infile is not None:
        record = run_pipeline(_read("image", args.infile), config, glossary, onto,
                              source_path=args.infile)
        out = args.out or sidecar_path(args.infile)
        write_sidecar(record, out)
        _err(f"{len(record.segments)} segments, "
             f"{sum(len(v) for v in record.assignments.values())} labels -> {out}")
        return EXIT_OK
    return _run_corpus(manifest_path, config, glossary, onto,
                       force=args.force, workers=args.workers)


def _run_corpus(manifest_path, config, glossary, onto, force=False, workers=None) -> int:
    if config.method != "native":  # a bad endpoint URL is one error, not one per image
        for stage, url in resolve_endpoints(config.endpoints).items():
            check_endpoint(stage, url)
    manifest = _read("manifest", manifest_path, load_manifest)
    base = os.path.dirname(os.path.abspath(manifest_path))
    images = [os.path.join(base, rel)
              for t in manifest.treatises for rel in t.images]

    counts = {"processed": 0, "failed": 0, "skipped": 0}
    backend_failure = False
    job = (config, glossary, onto, force)
    with closing(_corpus_results(_corpus_image, images, job, workers)) as results:
        for path, outcome in results:
            if isinstance(outcome, _Failure):
                counts["failed"] += 1
                _err(f"{path}: {outcome.message}")
                backend_failure |= outcome.backend
            else:
                counts[outcome] += 1
    print(f"processed={counts['processed']} failed={counts['failed']} "
          f"skipped={counts['skipped']}")
    if counts["failed"]:
        return EXIT_BACKEND if backend_failure else EXIT_DATA
    return EXIT_OK


def _corpus_image(path, config, glossary, onto, force) -> str:
    """Run one corpus image; "processed", or "skipped" when its sidecar is current."""
    out = sidecar_path(path)
    blob = _read("image", path)
    if not force and _is_current(out, blob, config.method):
        return "skipped"
    write_sidecar(run_pipeline(blob, config, glossary, onto, source_path=path), out)
    return "processed"


# ---------------------------------------------------------------------------
# forked workers

class _Failure(NamedTuple):
    """A task that raised one of the error families main exits 2 or 3 on; a
    message, not the exception, since an exception may not survive the pipe
    from a worker."""
    message: str
    backend: bool = False


def __getattr__(name):
    """The pool machinery, imported on first use: only commands over many
    files start workers, and the imports cost about 15 ms."""
    if name == "multiprocessing":
        import multiprocessing as value
    elif name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


# batches handed to each worker: enough to even out uneven items, few
# enough that the pool's per-task cost stays small next to the work
_BATCHES_PER_WORKER = 8


def _corpus_results(task, items, job, workers=None, per_worker=1):
    """Each item with `task(item, *job)` or its _Failure, in input order, as
    they come. With more than one worker (`workers`, else one per usable CPU,
    with at least `per_worker` items each) the items run in a pool of forked
    processes: they inherit the task and job, so only items and results cross
    the pipe. The pool takes the largest input first (LPT order), in batches."""
    this = sys.modules[__name__]  # the pool machinery, through __getattr__
    size = min(workers or _usable_cpus(), len(items) // per_worker)
    if size <= 1 or "fork" not in this.multiprocessing.get_all_start_methods():
        for item in items:
            yield item, _attempt(task, item, job)
        return
    from concurrent.futures.process import BrokenProcessPool

    order = sorted(range(len(items)), key=lambda i: _file_size(items[i]), reverse=True)
    rank = {i: r for r, i in enumerate(order)}
    step = max(1, len(items) // (size * _BATCHES_PER_WORKER))  # items per batch
    pool = this.ProcessPoolExecutor(size, this.multiprocessing.get_context("fork"),
                                    initializer=_start_worker, initargs=(task, job))
    futures = []  # batch b holds order[b * step:(b + 1) * step]
    try:
        with suppress(BrokenProcessPool):  # a worker died: the rest fails below
            for start in range(0, len(order), step):
                batch = (items[i] for i in order[start:start + step])
                futures.append(pool.submit(_worker_batch, *batch))
        for i, item in enumerate(items):
            b, k = divmod(rank[i], step)
            outcome = _Failure("worker process ended abruptly")
            with suppress(BrokenProcessPool):
                if b < len(futures):
                    outcome = futures[b].result()[k]
            yield item, outcome
    finally:
        pool.shutdown(cancel_futures=True)


def _attempt(task, item, job):
    try:
        return task(item, *job)
    except (ValueError, KeyError, OSError, BackendError) as exc:
        # the families main exits 2 or 3 on; others are bugs and escape
        return _Failure(str(exc), isinstance(exc, BackendError))
    except MemoryError:  # an input too large for this machine fails alone
        return _Failure("out of memory")


_worker_job = None  # (task, job) in a worker process


def _start_worker(task, job) -> None:
    global _worker_job
    _worker_job = task, job
    gc.freeze()  # the heap inherited from the fork stays out of the worker's collections


def _worker_batch(*items) -> list:
    task, job = _worker_job
    return [_attempt(task, item, job) for item in items]


def _value(outcome):
    """A task's value; a _Failure is raised as a ValueError, a data error."""
    if isinstance(outcome, _Failure):
        raise ValueError(outcome.message)
    return outcome


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _is_current(sidecar: str, image_bytes: bytes, method: str) -> bool:
    """True when the sidecar on disk is a valid record of these image bytes
    made by this method; anything else is reprocessed."""
    try:
        record = _read("sidecar", sidecar, read_sidecar)
    except (OSError, ValueError):
        return False
    return record.image_id == image_id_for(image_bytes) and record.provenance.method == method


def _cmd_vocab(args) -> int:
    cfg = _load_config(args)
    glossary = _knowledge(args, cfg, "glossary", "vocab needs --glossary (flag or config)")
    endpoints = resolve_endpoints(cfg.get("endpoints", {}))
    seed = build_label_vocabulary(
        glossary,
        definer_url=endpoints.get("define"),
        cache_path=args.out,
        **_given(args, cfg, language="language", domain_context="domain_context",
                 timeout="timeout"),
    )
    _err(f"{len(seed.entries)} terms -> {args.out}")
    return EXIT_OK


def _cmd_enrich(args) -> int:
    cfg = _load_config(args)
    need = "this command needs --glossary and --ontology (flag or config)"
    glossary = _knowledge(args, cfg, "glossary", need)
    onto = _knowledge(args, cfg, "ontology", need)
    record = _read("sidecar", args.infile, read_sidecar)
    enriched = replace(record, assignments=enrich_labels(record.assignments, glossary, onto))
    out = args.out or args.infile
    write_sidecar(enriched, out)
    return EXIT_OK


def _cmd_index(args) -> int:
    cfg = _load_config(args)
    index_path = _opt(args, cfg, "index", "index needs --index SNAPSHOT (flag or config)")
    if os.path.exists(index_path) and not args.force:
        index = retrieval.load_index(index_path)
    else:
        index = retrieval.Index()
    with closing(_corpus_results(_sidecar_docs, args.sidecars, (),
                                 per_worker=_SIDECARS_PER_WORKER)) as results:
        for _, outcome in results:
            index.add_image(*_value(outcome))
    retrieval.save_index(index, index_path)
    _err(f"{index.doc_count} documents -> {index_path}")
    return EXIT_OK


# a 2-worker pool first paid for its start and stop between 64 and 100
# sidecars (2-core Xeon); below this many a worker, index reads them here
_SIDECARS_PER_WORKER = 50


def _sidecar_docs(path) -> tuple:
    record = _read("sidecar", path, read_sidecar)
    return record.image_id, retrieval.record_docs(record)


def _cmd_search(args) -> int:
    if args.hops is not None and not args.expand:
        raise UsageError("--hops needs --expand")
    cfg = _load_config(args)
    index_path = _opt(args, cfg, "index", "search needs --index SNAPSHOT (flag or config)")
    index = retrieval.load_index(index_path)
    terms = args.query.split()
    glossary = onto = None
    if args.expand:
        glossary = _knowledge(args, cfg, "glossary", "--expand needs --glossary (flag or config)")
        onto = _knowledge(args, cfg, "ontology")
    query = retrieval.expand_query(terms, glossary, onto,
                                   **(_given(args, {}, hops="hops") if args.expand else {}))
    hits = retrieval.search(index, query, **_given(args, {}, k="k", kind="kind"))
    for rank, hit in enumerate(hits, start=1):
        print(f"{rank}\t{hit.doc_id}\t{hit.score:.6f}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg = _load_config(args)
    preds = args.pred or []
    truths = args.truth or []
    if len(preds) != len(truths) or not preds:
        raise UsageError("eval needs matching --pred/--truth pairs")
    glossary = _knowledge(args, cfg, "glossary") or lexicon.Glossary({}, {})
    onto = _knowledge(args, cfg, "ontology") or ontology.Ontology({}, ())
    reports = []
    for pred_path, truth_path in zip(preds, truths):
        predicted = _read("sidecar", pred_path, read_sidecar)
        truth = _read("truth", truth_path, evaluation.load_truth)
        reports.append(evaluation.evaluate(
            predicted, truth, glossary, onto, **_given(args, {}, iou_threshold="iou_threshold")))
    overall = evaluation.aggregate(reports, macro=args.macro)
    print(evaluation.format_report_table(reports + [overall]))
    if args.out:
        obj = {
            "images": [evaluation.report_to_obj(r) for r in reports],
            "aggregate": evaluation.report_to_obj(overall),
        }
        atomic_write(args.out, (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode())
    return EXIT_OK


def _cmd_overlay(args) -> int:
    grid = _read("image", args.infile, decode_pgm)
    record = _read("sidecar", args.sidecar or sidecar_path(args.infile), read_sidecar)
    out_grid = render_overlay(grid, record)
    atomic_write(args.out, encode_pgm(out_grid))
    return EXIT_OK


def _cmd_mock_serve(args) -> int:
    fixtures = _read("fixtures", args.fixtures, load_fixture_table) if args.fixtures else None
    server = MockBackendServer(port=args.port, fixtures=fixtures,
                               **_given(args, {}, host="host", max_tags="max_tags"))
    for stage, url in server.endpoints.items():
        _err(f"{stage}: {url}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return EXIT_OK


def _cmd_validate(args) -> int:
    data = _read("sidecar", args.infile)
    image_bytes = _read("image", args.image) if args.image else None
    try:
        read_sidecar(data, image_bytes)
    except SidecarValidationError as exc:
        for v in exc.violations:
            print(v)
        return EXIT_DATA
    print("ok")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treatise",
                     description="Segment, label, index, and search treatise page images.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p):
        p.add_argument("--config", help="path to a treatise.json config file")
        return p

    p = common(sub.add_parser("segment", help="watershed-segment one graymap image"))
    p.add_argument("--in", dest="infile", required=True, metavar="IMAGE")
    p.add_argument("--out", metavar="SIDECAR")
    p.add_argument("--relief", choices=("gradient", "raw"))
    p.add_argument("--h", type=int, help="minimum basin depth kept as a marker")
    p.set_defaults(func=_cmd_segment)

    p = common(sub.add_parser("pipeline", help="run the labeling pipeline"))
    p.add_argument("--in", dest="infile", metavar="IMAGE")
    p.add_argument("--out", metavar="SIDECAR")
    p.add_argument("--method", choices=sorted(_METHOD_NAMES))
    p.add_argument("--manifest", metavar="MANIFEST", help="process a whole corpus")
    p.add_argument("--glossary")
    p.add_argument("--ontology")
    p.add_argument("--vocabulary", help="vocabulary seed path (m4/m4b)")
    p.add_argument("--seg-stage", dest="seg_stage",
                   choices=("before_labeling", "after_labeling"))
    p.add_argument("--max-tags", dest="max_tags", type=int)
    p.add_argument("--force", action="store_true",
                   help="reprocess images that already have sidecars")
    p.add_argument("--workers", type=int)
    p.set_defaults(func=_cmd_pipeline)

    p = common(sub.add_parser("vocab", help="build the definition vocabulary seed"))
    p.add_argument("--glossary")
    p.add_argument("--out", required=True, metavar="SEED")
    p.add_argument("--language")
    p.set_defaults(func=_cmd_vocab)

    p = common(sub.add_parser("enrich", help="attach concepts and definitions to labels"))
    p.add_argument("--in", dest="infile", required=True, metavar="SIDECAR")
    p.add_argument("--out", metavar="SIDECAR")
    p.add_argument("--glossary")
    p.add_argument("--ontology")
    p.set_defaults(func=_cmd_enrich)

    p = common(sub.add_parser("index", help="add sidecar records to an index snapshot"))
    p.add_argument("--index", metavar="SNAPSHOT")
    p.add_argument("--force", action="store_true", help="rebuild instead of updating")
    p.add_argument("sidecars", nargs="+", metavar="SIDECAR")
    p.set_defaults(func=_cmd_index)

    p = common(sub.add_parser("search", help="ranked query over an index snapshot"))
    p.add_argument("--index", metavar="SNAPSHOT")
    p.add_argument("--query", required=True)
    p.add_argument("--expand", action="store_true")
    p.add_argument("--hops", type=int, choices=(0, 1))
    p.add_argument("--glossary")
    p.add_argument("--ontology")
    p.add_argument("--k", type=int)
    p.add_argument("--kind", choices=("all", "image", "segment"))
    p.set_defaults(func=_cmd_search)

    p = common(sub.add_parser("eval", help="score predictions against curated truth"))
    p.add_argument("--pred", action="append", metavar="SIDECAR")
    p.add_argument("--truth", action="append", metavar="SIDECAR")
    p.add_argument("--glossary")
    p.add_argument("--ontology")
    p.add_argument("--iou-threshold", dest="iou_threshold", type=float)
    p.add_argument("--macro", action="store_true")
    p.add_argument("--out", metavar="REPORT_JSON")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("overlay", help="render contours and boxes onto the image")
    p.add_argument("--in", dest="infile", required=True, metavar="IMAGE")
    p.add_argument("--sidecar", metavar="SIDECAR")
    p.add_argument("--out", required=True, metavar="IMAGE")
    p.set_defaults(func=_cmd_overlay)

    p = sub.add_parser("mock-serve", help="serve deterministic mock backends")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--host")
    p.add_argument("--fixtures", metavar="TABLE_JSON")
    p.add_argument("--max-tags", dest="max_tags", type=int)
    p.set_defaults(func=_cmd_mock_serve)

    p = sub.add_parser("validate", help="check a sidecar against every invariant")
    p.add_argument("--in", dest="infile", required=True, metavar="SIDECAR")
    p.add_argument("--image", metavar="IMAGE", help="re-hash these bytes against image_id")
    p.set_defaults(func=_cmd_validate)

    return parser


# each numeric flag's dest, with its lowest and highest (None: no limit) value;
# NaN is in no range, since every comparison with it is false
_FLAG_RANGES = {"workers": (1, None), "h": (0, None), "max_tags": (1, None), "k": (1, None),
                "iou_threshold": (0, 1), "port": (0, 65535)}


def _check_ranges(args) -> None:
    for dest, (low, high) in _FLAG_RANGES.items():
        value = getattr(args, dest, None)
        if value is not None and not (low <= value and (high is None or value <= high)):
            bound = f"at least {low}" if high is None else f"between {low} and {high}"
            raise UsageError(f"--{dest.replace('_', '-')} must be {bound}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; one build takes about 2 ms."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        _check_ranges(args)
        return args.func(args)
    except UsageError as exc:
        _err(f"error: {exc}")
        return EXIT_USAGE
    except BackendError as exc:
        _err(f"error: {exc}")
        return EXIT_BACKEND
    except (ValueError, KeyError, OSError) as exc:
        _err(f"error: {exc}")
        return EXIT_DATA
    except MemoryError:
        _err("error: out of memory")
        return EXIT_DATA
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
