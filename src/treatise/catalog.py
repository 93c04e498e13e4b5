"""Persistent records for processed images: segments, boxes, label
assignments, and provenance, serialized as canonical-JSON sidecar files.

Equal records serialize to identical bytes (`canonical_json_bytes`), so
sidecars can be compared and cached by content.

Sidecar top level: schema_version, image_id, source_path, width, height,
segments[], assignments{}, image_caption?, provenance{}. Unknown top-level
keys survive a read/write cycle untouched; unknown keys nested deeper are
dropped on read.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, islice

import numpy as np

from . import atomic_write, canonical_json_bytes, lexicon, parse_json
from .raster import BoundingBox, ImageGrid, MaskRLE, Segment

SCHEMA_VERSION = 1
LABEL_SOURCES = ("caption-derived", "tagger", "grounder", "llm", "human")
METHODS = ("M1", "M2", "M3", "M4", "M4b", "native")

_HEX64 = re.compile(r"^[0-9a-f]{64}$")
_TOP_LEVEL_KEYS = frozenset(
    {"schema_version", "image_id", "source_path", "width", "height",
     "segments", "assignments", "image_caption", "provenance"}
)


class SidecarFormatError(ValueError):
    """Structurally invalid sidecar bytes; .path is the offending location."""

    def __init__(self, path: str, message: str):
        self.path, self.message = path, message
        super().__init__(f"{path}: {message}")


class SidecarValidationError(ValueError):
    """A structurally sound record that violates invariants."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class ManifestError(ValueError):
    pass


@dataclass(frozen=True)
class Violation:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass(frozen=True)
class LabelAssignment:
    text: str
    confidence: float = 1.0
    source: str = "human"
    concept_id: str | None = None
    definition: str | None = None


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).replace(microsecond=0).isoformat().replace("+00:00", "Z")


def parse_timestamp(value: str) -> datetime:
    # datetime.fromisoformat on 3.10 rejects a trailing Z designator.
    if value.endswith("Z"):
        value = value[:-1] + "+00:00"
    return datetime.fromisoformat(value)


@dataclass(frozen=True)
class Provenance:
    method: str
    backend_ids: dict = field(default_factory=dict)
    prompt_hashes: tuple = ()
    timestamp: str = field(default_factory=utc_timestamp)
    degraded: bool = False


@dataclass(frozen=True)
class ImageRecord:
    image_id: str
    source_path: str
    width: int
    height: int
    segments: tuple
    assignments: dict
    provenance: Provenance
    image_caption: str | None = None
    # Foreign top-level keys read from disk, re-emitted verbatim on write.
    extra: dict = field(default_factory=dict)


def image_id_for(image_bytes: bytes) -> str:
    return hashlib.sha256(image_bytes).hexdigest()


def _segment_to_obj(seg: Segment) -> dict:
    # a point that is no tuple goes as it is, for the reader to name
    contour = [list(p) if type(p) is tuple else p for p in seg.contour]
    return {
        "id": seg.id,
        "bbox": seg.bbox.as_list(),
        "area": seg.area,
        "mask": {"counts": list(seg.mask.counts)},
        "contour": contour,
    }


def _assignment_to_obj(a: LabelAssignment) -> dict:
    obj = {"text": a.text, "confidence": a.confidence, "source": a.source}
    if a.concept_id is not None:
        obj["concept_id"] = a.concept_id
    if a.definition is not None:
        obj["definition"] = a.definition
    return obj


def record_to_obj(record: ImageRecord) -> dict:
    return _record_obj(record, [_segment_to_obj(s) for s in record.segments])


def _record_obj(record: ImageRecord, segments) -> dict:
    obj = {
        "schema_version": SCHEMA_VERSION,
        "image_id": record.image_id,
        "source_path": record.source_path,
        "width": record.width,
        "height": record.height,
        "segments": segments,
        "assignments": {
            str(sid): [_assignment_to_obj(a) for a in items]
            for sid, items in record.assignments.items()
        },
        "provenance": {
            "method": record.provenance.method,
            "backend_ids": dict(record.provenance.backend_ids),
            "prompt_hashes": list(record.provenance.prompt_hashes),
            "timestamp": record.provenance.timestamp,
            "degraded": record.provenance.degraded,
        },
    }
    if record.image_caption is not None:
        obj["image_caption"] = record.image_caption
    for key, value in record.extra.items():
        obj.setdefault(key, value)
    return obj


def _want(obj: dict, key: str, kinds, path: str, required=True):
    if key not in obj:
        if required:
            raise SidecarFormatError(f"{path}/{key}", "missing required key")
        return None
    value = obj[key]
    # bool is an int subclass; never accept it where a number is wanted
    if not isinstance(value, kinds) or (type(value) is bool and kinds is not bool):
        raise SidecarFormatError(f"{path}/{key}", f"unexpected type {type(value).__name__}")
    return value


def _segment_from_obj(obj, path: str) -> Segment:
    # `type(v) is int` rejects bools; a path is built only for a failing value
    if not isinstance(obj, dict):
        raise SidecarFormatError(path, "segment must be an object")
    sid = _want(obj, "id", int, path)
    bx = _want(obj, "bbox", list, path)
    if len(bx) != 4 or not all(type(v) is int for v in bx):
        raise SidecarFormatError(f"{path}/bbox", "expected a list of 4 integers")
    area = _want(obj, "area", int, path)
    mask_obj = _want(obj, "mask", dict, path)
    counts = _want(mask_obj, "counts", list, f"{path}/mask")
    if not all(type(c) is int for c in counts):
        raise SidecarFormatError(f"{path}/mask/counts", "counts must be integers")
    contour = _want(obj, "contour", list, path)
    for j, pt in enumerate(contour):
        if (type(pt) is not list or len(pt) != 2
                or type(pt[0]) is not int or type(pt[1]) is not int):
            raise SidecarFormatError(f"{path}/contour/{j}", "expected a list of 2 integers")
    try:
        bbox = BoundingBox(bx[0], bx[1], bx[2], bx[3])
    except ValueError as exc:
        raise SidecarFormatError(f"{path}/bbox", str(exc)) from None
    mask = MaskRLE(width=bx[2], height=bx[3], counts=tuple(counts))
    return Segment(id=sid, bbox=bbox, mask=mask, area=area, contour=tuple(map(tuple, contour)))


def _assignment_from_obj(obj, path: str) -> LabelAssignment:
    if not isinstance(obj, dict):
        raise SidecarFormatError(path, "assignment must be an object")
    text = _want(obj, "text", str, path)
    confidence = _want(obj, "confidence", (int, float), path)
    source = _want(obj, "source", str, path)
    concept_id = _want(obj, "concept_id", str, path, required=False)
    definition = _want(obj, "definition", str, path, required=False)
    return LabelAssignment(
        text=text, confidence=float(confidence), source=source,
        concept_id=concept_id, definition=definition,
    )


def record_from_obj(doc: dict) -> ImageRecord:
    """Build a record from parsed JSON with path-labeled structure errors.
    Does not check invariants; callers follow up with validate_record.
    Consumes doc["segments"]: each item is set to None once its segment is
    built, so the parsed lists of one segment at a time are alive."""
    if not isinstance(doc, dict):
        raise SidecarFormatError("/", "top level must be an object")
    version = _want(doc, "schema_version", int, "")
    if version > SCHEMA_VERSION or version < 1:
        raise SidecarFormatError("/schema_version", f"unsupported schema version {version}")
    image_id = _want(doc, "image_id", str, "")
    source_path = _want(doc, "source_path", str, "")
    width = _want(doc, "width", int, "")
    height = _want(doc, "height", int, "")
    segs_raw = _want(doc, "segments", list, "")
    segments = []
    for i in range(len(segs_raw)):
        segments.append(_segment_from_obj(segs_raw[i], f"/segments/{i}"))
        segs_raw[i] = None
    assign_raw = _want(doc, "assignments", dict, "")
    assignments = {}
    for key, items in assign_raw.items():
        path = f"/assignments/{key}"
        try:
            sid = int(key)
        except ValueError:
            sid = None
        if str(sid) != key:  # "01", " 1", "+1" or "1_0" would alias another key
            raise SidecarFormatError(path, "segment id key must be an integer in canonical form")
        if not isinstance(items, list):
            raise SidecarFormatError(path, "expected a list of assignments")
        assignments[sid] = tuple(
            _assignment_from_obj(a, f"{path}/{j}") for j, a in enumerate(items)
        )
    caption = _want(doc, "image_caption", str, "", required=False)
    prov_obj = _want(doc, "provenance", dict, "")
    method = _want(prov_obj, "method", str, "/provenance")
    backend_ids = _want(prov_obj, "backend_ids", dict, "/provenance")
    for k, v in backend_ids.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise SidecarFormatError("/provenance/backend_ids", "must map strings to strings")
    hashes = _want(prov_obj, "prompt_hashes", list, "/provenance")
    if not all(isinstance(h, str) for h in hashes):
        raise SidecarFormatError("/provenance/prompt_hashes", "must be a list of strings")
    timestamp = _want(prov_obj, "timestamp", str, "/provenance")
    degraded = _want(prov_obj, "degraded", bool, "/provenance", required=False)
    provenance = Provenance(
        method=method, backend_ids=dict(backend_ids), prompt_hashes=tuple(hashes),
        timestamp=timestamp, degraded=bool(degraded) if degraded is not None else False,
    )
    extra = {k: v for k, v in doc.items() if k not in _TOP_LEVEL_KEYS}
    return ImageRecord(
        image_id=image_id, source_path=source_path, width=width, height=height,
        segments=tuple(segments), assignments=assignments, provenance=provenance,
        image_caption=caption, extra=extra,
    )


# The array pass works in int64: it checks boxes whose far edges and pixel
# count are at most _SPAN, in batches of at most _SPAN pixels, so no sum or
# in-box position overflows; a point outside its box may wrap, and stays outside.
_SPAN = 1 << 62
# a contour point, then its up, down, left and right neighbours
_DX = np.array([[0], [0], [0], [-1], [1]])
_DY = np.array([[0], [-1], [1], [0], [0]])
# contour points are looked up at most this many at a time, so the lookup's
# arrays stay a fixed size however many points a record has
_POINT_SLICE = 2**14


def _contour_slices(segments, total: int):
    """The `total` contour points of all segments, in order, as (m, 2) int64
    arrays of at most _POINT_SLICE points, each with the index of its first
    point; a coordinate past int64 becomes -_SPAN or _SPAN, outside every box
    the array pass checks."""
    def values():
        return chain.from_iterable(chain.from_iterable(s.contour for s in segments))
    flat = values()
    for lo in range(0, total, _POINT_SLICE):
        m = 2 * min(_POINT_SLICE, total - lo)
        try:
            xy = np.fromiter(islice(flat, m), np.int64, m)
        except OverflowError:  # read the slice again, clamped, and go on from its end
            flat = islice(values(), 2 * lo, None)
            xy = np.fromiter((min(max(v, -_SPAN), _SPAN) for v in islice(flat, m)), np.int64, m)
        yield lo, xy.reshape(-1, 2)


def _mask_geometry(segments, base: int) -> tuple:
    """Area, tight-box flag and the contour points that are not boundary
    pixels, for segments whose run counts fill their boxes, read from the run
    ends of all of them at once; no mask is decoded. Returns lists: the
    areas; the tight flags; and for each such contour point, in order, a
    tuple of its segment (numbered from `base`), its index in the contour,
    and whether it is set (so interior) or not in the mask."""
    n = len(segments)
    x, y, w, h, nruns, npoints = np.array(
        [(s.bbox.x, s.bbox.y, s.bbox.w, s.bbox.h, len(s.mask.counts), len(s.contour))
         for s in segments], np.int64).T
    counts = np.fromiter(chain.from_iterable(s.mask.counts for s in segments), np.int64)
    # each segment's pixels follow the previous segment's, row-major in its box
    start = np.cumsum(w * h) - w * h
    ends = np.cumsum(counts)
    first = np.cumsum(nruns) - nruns  # each segment's first run
    run_seg = np.repeat(np.arange(n), nruns)
    ones = ((np.arange(len(counts)) - first[run_seg]) & 1).astype(bool)  # runs of set pixels
    areas = np.add.reduceat(counts * ones, first)

    # tight: some non-empty one-run holds a pixel of each edge row and column
    rw = w[run_seg]
    stop = ends - start[run_seg]
    lo = stop - counts
    edges = ((lo < rw) | (stop > (h[run_seg] - 1) * rw) << 1
             | ((-lo) % rw < counts) << 2 | ((rw - 1 - lo) % rw < counts) << 3)
    tight = np.bitwise_or.reduceat(edges * (ones & (counts > 0)), first) == 15

    # each contour point and its neighbours, in box coordinates, looked up in
    # the run ends: a pixel is set when its run is odd among its segment's runs
    set_run = np.append(ones, False)
    point_end = np.cumsum(npoints)
    point_first = point_end - npoints
    bad = []
    for p0, xy in _contour_slices(segments, int(point_end[-1])):
        point_seg = np.searchsorted(point_end, np.arange(p0, p0 + len(xy)), side="right")
        pw, ph = w[point_seg], h[point_seg]
        nx = (xy[:, 0] - x[point_seg]) + _DX
        ny = (xy[:, 1] - y[point_seg]) + _DY
        run = np.searchsorted(ends, start[point_seg] + ny * pw + nx, side="right")
        is_set = (nx >= 0) & (nx < pw) & (ny >= 0) & (ny < ph) & set_run[run]
        # a boundary pixel is set and has an unset neighbour
        at = np.flatnonzero(~is_set[0] | is_set.all(axis=0))
        bad_seg = point_seg[at]
        bad.extend(zip((bad_seg + base).tolist(), (at + p0 - point_first[bad_seg]).tolist(),
                       is_set[0, at].tolist()))
    return areas.tolist(), tight.tolist(), bad


def validate_record(record: ImageRecord, image_bytes: bytes | None = None) -> list:
    """Every violated invariant, each tagged with a JSON-pointer-style path.
    An empty list means the record is valid."""
    out: list[Violation] = []
    if not _HEX64.match(record.image_id or ""):
        out.append(Violation("/image_id", "must be 64 lowercase hex digits"))
    elif image_bytes is not None and image_id_for(image_bytes) != record.image_id:
        out.append(Violation("/image_id", "does not match the image bytes"))
    if record.width < 1 or record.height < 1:
        out.append(Violation("/width", "frame must be at least 1x1"))

    # First the masks that cannot be checked against their box; the rest go,
    # in batches of at most _SPAN pixels, to one array pass each.
    segments = record.segments
    mask_errors = [None] * len(segments)
    batches, pixels = [], 0
    for i, seg in enumerate(segments):
        b, counts = seg.bbox, seg.mask.counts
        if seg.mask.width != b.w or seg.mask.height != b.h:
            mask_errors[i] = ("mask", "mask dimensions differ from bbox")
        elif counts and min(counts) < 0:
            mask_errors[i] = ("mask", "negative run count")
        elif (total := sum(counts)) != b.w * b.h:
            mask_errors[i] = ("mask", f"run counts sum to {total}, expected {b.w * b.h}")
        elif b.x + b.w > _SPAN or b.y + b.h > _SPAN or total > _SPAN:
            mask_errors[i] = ("bbox", "box edge or area past 2**62 pixels")
        else:
            if not batches or pixels + total > _SPAN:
                batches.append([])
                pixels = 0
            batches[-1].append(seg)
            pixels += total
    areas, tight, bad = [], [], []
    for batch in batches:
        for acc, part in zip((areas, tight, bad), _mask_geometry(batch, len(areas))):
            acc.extend(part)

    seen_ids = set()
    k = p = 0  # next checked segment, next bad contour point
    for i, seg in enumerate(segments):
        if seg.id < 1:
            out.append(Violation(f"/segments/{i}/id", "segment id must be >= 1"))
        if seg.id in seen_ids:
            out.append(Violation(f"/segments/{i}/id", f"duplicate segment id {seg.id}"))
        seen_ids.add(seg.id)
        if not seg.bbox.fits(record.width, record.height):
            out.append(Violation(f"/segments/{i}/bbox", "box extends past the frame"))
        if mask_errors[i] is not None:
            key, message = mask_errors[i]
            out.append(Violation(f"/segments/{i}/{key}", message))
            continue
        area = areas[k]
        if seg.area != area:
            out.append(Violation(f"/segments/{i}/area",
                                 f"area {seg.area} != {area} set mask pixels"))
        if area == 0:
            out.append(Violation(f"/segments/{i}/mask", "mask has no set pixels"))
        elif not tight[k]:
            out.append(Violation(f"/segments/{i}/bbox", "bbox is not tight around the mask"))
        while p < len(bad) and bad[p][0] == k:
            _, j, interior = bad[p]
            message = "contour pixel is interior" if interior else "contour pixel not in mask"
            out.append(Violation(f"/segments/{i}/contour/{j}", message))
            p += 1
        k += 1

    for sid, items in record.assignments.items():
        base = f"/assignments/{sid}"
        if sid not in seen_ids:
            out.append(Violation(base, f"references absent segment id {sid}"))
        for j, a in enumerate(items):
            if not lexicon.normalize_term(a.text):
                out.append(Violation(f"{base}/{j}/text", "label text empty after normalization"))
            if not (0.0 <= a.confidence <= 1.0):
                out.append(Violation(f"{base}/{j}/confidence", "confidence outside [0,1]"))
            if a.source not in LABEL_SOURCES:
                out.append(Violation(f"{base}/{j}/source", f"unknown source {a.source!r}"))

    prov = record.provenance
    if prov.method not in METHODS:
        out.append(Violation("/provenance/method", f"unknown method {prov.method!r}"))
    try:
        parse_timestamp(prov.timestamp)
    except (ValueError, TypeError):
        out.append(Violation("/provenance/timestamp", "not an ISO-8601 timestamp"))
    for k, h in enumerate(prov.prompt_hashes):
        if not _HEX64.match(h):
            out.append(Violation(f"/provenance/prompt_hashes/{k}", "not a sha256 hex digest"))
    return out


# A segment's canonical JSON, keys in sorted order; the contour goes in as
# "[%d,%d]" points, the mask counts as decimal ints.
_SEGMENT_JSON = '{"area":%d,"bbox":[%d,%d,%d,%d],"contour":[%s],"id":%d,"mask":{"counts":[%s]}}'


def _segments_json(segments) -> str:
    """The canonical JSON of the segment list's items, joined by commas, one
    template per segment. `%d` would write a float, bool or numpy int as an
    int, so a value that is not an exact int raises the reader's
    SidecarFormatError."""
    try:
        text = ",".join([_SEGMENT_JSON % (
            s.area, s.bbox.x, s.bbox.y, s.bbox.w, s.bbox.h,
            ",".join(map("[%d,%d]".__mod__, s.contour)), s.id,
            ",".join(map(str, s.mask.counts))) for s in segments])
        # every point is a pair now, so its coordinates can be chained
        if set(map(type, chain.from_iterable(
                chain((s.id, s.area, s.bbox.x, s.bbox.y, s.bbox.w, s.bbox.h), s.mask.counts,
                      chain.from_iterable(s.contour)) for s in segments))) <= {int}:
            return text
    except TypeError:  # a point that is not a pair, or a value that is no number
        pass
    # the reader's own checks name the first value it would reject
    for i, seg in enumerate(segments):
        _segment_from_obj(_segment_to_obj(seg), f"/segments/{i}")
    raise TypeError("contour points must be (x, y) tuples")


def record_to_bytes(record: ImageRecord) -> bytes:
    """Validate and canonicalize: the segments from one template each, the
    rest through canonical_json_bytes, spliced in at the sorted place of the
    "segments" key. A value the reader would reject raises
    SidecarValidationError with the reader's path and message, before the
    invariants are checked. Of several such values it names one: it checks
    the segments last, the reader first, so the two may name different ones."""
    obj = _record_obj(record, [])
    try:
        record_from_obj(obj)  # every value but the segments, as it will be written
        segments = _segments_json(record.segments).encode("ascii")
    except SidecarFormatError as exc:
        raise SidecarValidationError([Violation(exc.path, exc.message)]) from None
    violations = validate_record(record)
    if violations:
        raise SidecarValidationError(violations)
    head = canonical_json_bytes({k: v for k, v in obj.items() if k < "segments"})
    tail = canonical_json_bytes({k: v for k, v in obj.items() if k > "segments"})
    return b"%s,\"segments\":[%s],%s" % (head[:-1], segments, tail[1:])


def write_sidecar(record: ImageRecord, destination) -> bytes:
    """Validate, canonicalize, and persist atomically, so readers never see
    a partial sidecar."""
    data = record_to_bytes(record)
    atomic_write(destination, data)
    return data


def read_sidecar(data: bytes | str, image_bytes: bytes | None = None) -> ImageRecord:
    """Parse, build and validate a record; with image_bytes, its image_id
    must also be their SHA-256."""
    record = record_from_obj(parse_json(data, lambda message: SidecarFormatError("/", message)))
    violations = validate_record(record, image_bytes)
    if violations:
        raise SidecarValidationError(violations)
    return record


def sidecar_path(image_path) -> str:
    return os.fspath(image_path) + ".segments.json"


def box_iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union in integer pixel counts."""
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    inter = max(ix, 0) * max(iy, 0)
    union = a.w * a.h + b.w * b.h - inter
    return inter / union if union else 0.0


def render_overlay(grid: ImageGrid, record: ImageRecord) -> ImageGrid:
    """Copy of the grid with contour pixels at 255 and bbox border pixels
    at 0; boxes paint after contours where the two overlap."""
    if grid.width != record.width or grid.height != record.height:
        raise ValueError("grid dimensions do not match the record frame")
    px = np.array(grid.pixels, dtype=np.uint8)
    for seg in record.segments:
        for x, y in seg.contour:
            px[y, x] = 255
    for seg in record.segments:
        b = seg.bbox
        px[b.y, b.x:b.x + b.w] = 0
        px[b.y + b.h - 1, b.x:b.x + b.w] = 0
        px[b.y:b.y + b.h, b.x] = 0
        px[b.y:b.y + b.h, b.x + b.w - 1] = 0
    return ImageGrid(px)


@dataclass(frozen=True)
class Treatise:
    title: str
    language: str
    year: int
    images: tuple


@dataclass(frozen=True)
class CorpusManifest:
    treatises: tuple
    year_range: tuple | None = None


def load_manifest(data: bytes | str) -> CorpusManifest:
    doc = parse_json(data, ManifestError)
    if not isinstance(doc, dict) or not isinstance(doc.get("treatises"), list):
        raise ManifestError('top level must be {"treatises": [...]}')
    year_range = None
    if "year_range" in doc:
        yr = doc["year_range"]
        if (not isinstance(yr, list) or len(yr) != 2
                or not all(type(v) is int for v in yr) or yr[0] > yr[1]):
            raise ManifestError("year_range must be [min, max] with min <= max")
        year_range = (yr[0], yr[1])
    treatises = []
    for i, raw in enumerate(doc["treatises"]):
        where = f"treatises[{i}]"
        if not isinstance(raw, dict):
            raise ManifestError(f"{where} must be an object")
        title = raw.get("title")
        language = raw.get("language")
        year = raw.get("year")
        images = raw.get("images")
        if not isinstance(title, str) or not title:
            raise ManifestError(f"{where}.title must be a non-empty string")
        if not isinstance(language, str) or not language:
            raise ManifestError(f"{where}.language must be a non-empty string")
        if not isinstance(year, int) or isinstance(year, bool):
            raise ManifestError(f"{where}.year must be an integer")
        if not isinstance(images, list) or not all(isinstance(p, str) for p in images):
            raise ManifestError(f"{where}.images must be a list of paths")
        if "count" in raw and (isinstance(raw["count"], bool) or raw["count"] != len(images)):
            raise ManifestError(f"{where}.count does not match the image list")
        if year_range is not None and not (year_range[0] <= year <= year_range[1]):
            raise ManifestError(f"{where}.year {year} outside declared range")
        treatises.append(Treatise(title=title, language=language, year=year, images=tuple(images)))
    return CorpusManifest(treatises=tuple(treatises), year_range=year_range)
