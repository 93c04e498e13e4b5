"""Orchestration of the labeling pipeline over HTTP inference backends.

Method variants:

  M1     caption the page, derive one-word tags from the caption, ground
         the tags to boxes ("caption-derived" labels)
  M2/M3  closed-vocabulary tagging, then grounding ("tagger" labels);
         M2 and M3 differ only in which backend is configured
  M4     tagging restricted to a glossary-built vocabulary seed, then
         grounding ("tagger" labels)
  M4b    the seed's definition texts are sent directly to the grounder as
         very long tags ("llm" labels); kept for comparison, flagged
         degraded in provenance
  native local watershed segmentation, no labels, no backends

Segmentation can run before or after the labeling stages; the emitted
record is identical either way except for provenance ordering, which is
what makes the ordering an implementation detail rather than a modeling
choice.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace

from . import fixtures, lexicon, parse_json
from .backends import BackendClient, WireSchemaError, resolve_endpoints
from .catalog import (
    METHODS,
    ImageRecord,
    LabelAssignment,
    Provenance,
    atomic_write,
    box_iou,
    canonical_json_bytes,
    image_id_for,
    utc_timestamp,
)
from .raster import (
    BoundingBox,
    MaskRLE,
    SegmentMap,
    decode_pgm,
    extract_segments,
    gradient_magnitude,
    regional_minima_markers,
    rle_decode,
    watershed,
)

DEFAULT_DOMAIN_CONTEXT = "shipbuilding or nautical"
SEGMENTATION_STAGES = ("before_labeling", "after_labeling")

# stages that must have endpoints configured, per method
_REQUIRED_STAGES = {
    "M1": ("segment", "caption", "ground"),
    "M2": ("segment", "tag", "ground"),
    "M3": ("segment", "tag", "ground"),
    "M4": ("segment", "tag", "ground"),
    "M4b": ("segment", "ground"),
    "native": (),
}

_SOURCES = {"M1": "caption-derived", "M2": "tagger", "M3": "tagger",
            "M4": "tagger", "M4b": "llm"}


class PipelineConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    method: str
    endpoints: dict = field(default_factory=dict)
    segmentation_stage: str = "before_labeling"
    vocabulary_path: str | None = None
    tag_vocabulary: tuple = ()  # optional closed list for M2/M3
    max_tags: int = 32
    timeout: float = 10.0
    language: str = "en"
    h_threshold: int = 0          # native path: marker shallowness cutoff
    relief: str = "gradient"      # native path: "gradient" or "raw"


def check_config(config: PipelineConfig) -> None:
    if config.method not in METHODS:
        raise PipelineConfigError(f"unknown method {config.method!r}")
    if config.segmentation_stage not in SEGMENTATION_STAGES:
        raise PipelineConfigError(f"unknown segmentation_stage {config.segmentation_stage!r}")
    if config.max_tags < 1:
        raise PipelineConfigError("max_tags must be positive")
    if config.relief not in ("gradient", "raw"):
        raise PipelineConfigError(f"unknown relief {config.relief!r}")
    if config.method in ("M4", "M4b") and not config.vocabulary_path:
        raise PipelineConfigError(f"method {config.method} requires vocabulary_path")


@dataclass(frozen=True)
class VocabularySeed:
    """Term -> definition map built from glossary headwords; source_hash
    ties the seed to the exact glossary and prompt set that generated it."""

    entries: dict
    source_hash: str
    language: str = "en"

    @property
    def terms(self) -> tuple:
        return tuple(sorted(self.entries))


def derive_tags_from_caption(caption: str, max_tags: int = 32, stopwords=None) -> list[str]:
    """One-word tags from a caption: tokenize, normalize, drop stopwords,
    deduplicate in order, truncate."""
    if stopwords is None:
        stopwords = fixtures.stopwords("en")
    tags = dict.fromkeys(tok for tok in lexicon.tokenize(caption) if tok not in stopwords)
    return list(tags)[:max_tags]


def build_definition_prompt(term: str, domain_context: str = DEFAULT_DOMAIN_CONTEXT) -> str:
    if not term or not term.strip():
        raise ValueError("term must be non-empty")
    return f'In a {domain_context} context, define "{term}".'


def _headword(entry: lexicon.GlossEntry, language: str) -> str:
    variants = entry.variants.get(language)
    return variants[0] if variants else entry.id


def seed_source_hash(glossary: lexicon.Glossary, language: str,
                     domain_context: str = DEFAULT_DOMAIN_CONTEXT) -> str:
    prompts = [
        build_definition_prompt(_headword(glossary.entries[eid], language), domain_context)
        for eid in sorted(glossary.entries)
    ]
    basis = {"glossary": glossary.fingerprint(), "language": language, "prompts": prompts}
    return hashlib.sha256(canonical_json_bytes(basis)).hexdigest()


def load_vocabulary_seed(data: bytes | str) -> VocabularySeed:
    doc = parse_json(data)
    if not isinstance(doc, dict):
        raise ValueError("vocabulary seed must be a JSON object")
    entries = doc.get("entries")
    source_hash = doc.get("source_hash")
    language = doc.get("language", "en")
    if not isinstance(entries, dict) or not isinstance(source_hash, str):
        raise ValueError("vocabulary seed must carry entries and source_hash")
    if not isinstance(language, str):
        raise ValueError("vocabulary seed language must be a string")
    for term, definition in entries.items():
        if not isinstance(term, str) or lexicon.normalize_term(term) != term:
            raise ValueError(f"seed term {term!r} is not in normalized form")
        if not isinstance(definition, str) or not definition:
            raise ValueError(f"seed term {term!r} has an empty definition")
    return VocabularySeed(entries=dict(entries), source_hash=source_hash, language=language)


def read_vocabulary_seed(path) -> VocabularySeed:
    with open(path, "rb") as fh:
        return load_vocabulary_seed(fh.read())


def _write_seed(seed: VocabularySeed, path) -> None:
    obj = {
        "schema_version": 1,
        "source_hash": seed.source_hash,
        "language": seed.language,
        "entries": dict(seed.entries),
    }
    atomic_write(path, canonical_json_bytes(obj))


def build_label_vocabulary(glossary: lexicon.Glossary, definer_url: str | None = None,
                           language: str = "en", cache_path=None,
                           domain_context: str = DEFAULT_DOMAIN_CONTEXT,
                           timeout: float = 10.0, client: BackendClient | None = None,
                           ) -> VocabularySeed:
    """One definition per glossary entry, fetched from the definer backend.

    The result is cached at cache_path keyed by a hash of the glossary and
    the exact prompts; a matching cache satisfies the build with zero
    backend calls. Partial results are never persisted: the cache file is
    written only after every definition arrived.
    """
    want_hash = seed_source_hash(glossary, language, domain_context)
    if cache_path is not None and os.path.exists(cache_path):
        try:
            cached = read_vocabulary_seed(cache_path)
        except (ValueError, OSError):
            cached = None
        if cached is not None and cached.source_hash == want_hash:
            return cached
    if client is None:
        if not definer_url:
            raise ValueError("no definer endpoint and no usable cache")
        client = BackendClient({"define": definer_url}, timeout=timeout)
    entries = {}
    for eid in sorted(glossary.entries):
        head = _headword(glossary.entries[eid], language)
        term = lexicon.normalize_term(head)
        if term in entries:
            raise ValueError(f"two glossary entries normalize to the same headword {term!r}")
        prompt = build_definition_prompt(head, domain_context)
        entries[term] = client.define(prompt)["definition"]
    seed = VocabularySeed(entries=entries, source_hash=want_hash, language=language)
    if cache_path is not None:
        _write_seed(seed, cache_path)
    return seed


def enrich_labels(assignments: dict, glossary: lexicon.Glossary, ontology) -> dict:
    """Fill concept_id and definition on assignments whose normalized text
    hits a glossary entry linked (via gloss_id) to an ontology concept.
    Assignments are never dropped or reordered; filled fields are never
    overwritten."""
    out = {}
    for sid, items in assignments.items():
        new_items = []
        for a in items:
            hit = _resolve_label(a.text, glossary, ontology)
            if hit is None:
                new_items.append(a)
                continue
            concept_id, definition = hit
            new_items.append(replace(
                a,
                concept_id=a.concept_id if a.concept_id is not None else concept_id,
                definition=a.definition if a.definition is not None else definition,
            ))
        out[sid] = tuple(new_items)
    return out


def _resolve_label(text: str, glossary: lexicon.Glossary, ontology):
    """(concept_id, definition) for the first glossary hit carrying a
    concept link, or None. Entry ids and concept ids are scanned in sorted
    order so resolution is deterministic."""
    for eid in sorted(lexicon.lookup(glossary, text)):
        concepts = ontology.concepts_for_gloss(eid)
        if not concepts:
            continue
        defs = glossary.entries[eid].definitions
        definition = defs.get("en")
        if definition is None and defs:
            definition = defs[sorted(defs)[0]]
        return concepts[0], definition
    return None


def _segments_from_wire(resp: dict, width: int, height: int) -> tuple:
    """Tighten wire segments (bbox + RLE counts) into Segment values with
    traced contours, numbered from 1 in order; empty masks are dropped."""
    segments = []
    for obj in resp["segments"]:
        x, y, w, h = obj["bbox"]
        if x + w > width or y + h > height:
            raise WireSchemaError("segment", f"box [{x},{y},{w},{h}] extends past the frame")
        local = rle_decode(MaskRLE(width=w, height=h, counts=tuple(obj["mask"]["counts"])))
        # the decoded mask, labelled with the next segment id
        segments += extract_segments(SegmentMap(local * (len(segments) + 1)), x, y)
    return tuple(segments)


def _native_segments(grid, config: PipelineConfig) -> tuple:
    markers = regional_minima_markers(grid, config.h_threshold)
    relief = gradient_magnitude(grid) if config.relief == "gradient" else grid
    segmap = watershed(relief, markers)
    return tuple(extract_segments(segmap))


def _canonical_map(terms) -> dict:
    """normalized form -> canonical vocabulary term (first wins)."""
    out = {}
    for t in terms:
        out.setdefault(lexicon.normalize_term(t), t)
    return out


def _collect_tags(client: BackendClient, image_bytes: bytes, config: PipelineConfig,
                  seed: VocabularySeed | None):
    """The labeling half of the stage graph: returns (caption, tags, source)
    where tags is what the grounder will receive."""
    method = config.method
    if method == "M1":
        caption = client.caption(image_bytes)["caption"]
        try:
            stop = fixtures.stopwords(config.language)
        except KeyError:
            stop = fixtures.stopwords("en")
        tags = derive_tags_from_caption(caption, config.max_tags, stop)
        return caption, tags, _SOURCES[method]
    if method in ("M2", "M3", "M4"):
        # M4 closes the vocabulary over the seed's terms, M2/M3 over the
        # configured tag_vocabulary when there is one
        vocab = list(seed.terms) if method == "M4" else (list(config.tag_vocabulary) or None)
        resp = client.tag(image_bytes, vocabulary=vocab)
        raw = [t["text"] for t in resp["tags"]]
        if vocab is not None:
            canon = _canonical_map(vocab)
            raw = [canon[n] for n in map(lexicon.normalize_term, raw) if n in canon]
        return None, list(dict.fromkeys(raw))[: config.max_tags], _SOURCES[method]
    # M4b: the definition texts themselves go to the grounder
    tags = [seed.entries[t] for t in seed.terms][: config.max_tags]
    return None, tags, _SOURCES[method]


def _bind_detections(detections, segments, source: str) -> dict:
    """Attach each detection to the segment whose box overlaps it most
    (ties go to the lower segment id); zero-overlap detections are dropped."""
    assignments: dict[int, list] = {}
    for det in detections:
        dx, dy, dw, dh = det["bbox"]
        box = BoundingBox(dx, dy, dw, dh)
        best_id = None
        best_iou = 0.0
        for seg in segments:
            iou = box_iou(box, seg.bbox)
            if iou > best_iou:
                best_id, best_iou = seg.id, iou
        if best_id is None:
            continue
        assignments.setdefault(best_id, []).append(
            LabelAssignment(text=det["text"], confidence=float(det["confidence"]),
                            source=source)
        )
    return {sid: tuple(items) for sid, items in assignments.items()}


def run_pipeline(image_bytes: bytes, config: PipelineConfig,
                 glossary: lexicon.Glossary | None = None, ontology=None,
                 client: BackendClient | None = None,
                 source_path: str = "") -> ImageRecord:
    """Process one image into an ImageRecord.

    The record is not validated here: write_sidecar validates it on its way
    to disk, and image_id is computed from image_bytes, so it matches them
    by construction.

    A fresh backend client is created unless one is injected; injecting a
    shared client across concurrent runs would interleave their call logs,
    so share only within one image's run.
    """
    check_config(config)
    grid = decode_pgm(image_bytes)
    image_id = image_id_for(image_bytes)

    if config.method == "native":
        return ImageRecord(
            image_id=image_id, source_path=source_path,
            width=grid.width, height=grid.height,
            segments=_native_segments(grid, config),
            assignments={},
            provenance=Provenance(method="native", timestamp=utc_timestamp()),
        )

    if client is None:
        client = BackendClient(resolve_endpoints(config.endpoints), timeout=config.timeout)
    missing = [s for s in _REQUIRED_STAGES[config.method] if not client.endpoints.get(s)]
    if missing:
        raise PipelineConfigError(
            f"method {config.method} needs endpoints for: {', '.join(missing)}")

    seed = None
    if config.method in ("M4", "M4b"):
        if not os.path.exists(config.vocabulary_path):
            raise PipelineConfigError(
                f"vocabulary seed {config.vocabulary_path!r} not found; build it first")
        seed = read_vocabulary_seed(config.vocabulary_path)

    call_start = len(client.calls)
    segments = None
    if config.segmentation_stage == "before_labeling":
        segments = _segments_from_wire(client.segment(image_bytes), grid.width, grid.height)
    caption, tags, source = _collect_tags(client, image_bytes, config, seed)
    detections = client.ground(image_bytes, tags)["detections"] if tags else []
    if segments is None:
        segments = _segments_from_wire(client.segment(image_bytes), grid.width, grid.height)

    assignments = _bind_detections(detections, segments, source)
    if glossary is not None and ontology is not None:
        assignments = enrich_labels(assignments, glossary, ontology)

    calls = client.calls[call_start:]
    provenance = Provenance(
        method=config.method,
        backend_ids={c.stage: c.url for c in calls},
        prompt_hashes=tuple(c.request_sha256 for c in calls),
        timestamp=utc_timestamp(),
        degraded=config.method == "M4b",
    )
    return ImageRecord(
        image_id=image_id, source_path=source_path,
        width=grid.width, height=grid.height,
        segments=segments, assignments=assignments,
        provenance=provenance, image_caption=caption,
    )
