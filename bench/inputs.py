"""Seeded input generators for the benchmark workloads.

Every generator takes a numpy Generator (or a seed) and writes only plain
files: PGM pages, JSON manifests, canonical sidecars built through the
public `treatise.catalog` API, and a merged glossary. The program under test
sees nothing but these files. The same seed always yields the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from treatise import catalog, fixtures, raster
from treatise.catalog import ImageRecord, LabelAssignment, Provenance

# (kind, side) of the native pages. "noise" pages have thousands of small
# basins, so segment count drives the cost; "figures" pages have a few large
# basins, so the marker and watershed loops over big plateaus do. The two
# middle pages cost about the same, so the median page latency does not sit
# in a gap between page sizes.
NATIVE_PAGES = (("noise", 128), ("noise", 256), ("figures", 320), ("figures", 512))
NATIVE_H = (4, 16)
LABELED_PAGES = 24
LABELED_SIDE = 128
QUERY_RECORDS = 1000
EVAL_PAIRS = 200
QUERIES = 120

# Nautical words that no fixture glossary variant normalizes to.
FILLER = ("mast", "deck", "rudder", "anchor", "plank", "beam", "bow", "oar",
          "sail", "hatch", "capstan", "bowsprit", "yard", "shroud", "tiller",
          "hawse", "gunwale", "transom", "bilge", "ballast", "windlass",
          "cleat", "pintle", "gudgeon", "thwart", "strake", "wale", "futtock",
          "apron", "deadwood", "stemson", "garboard", "carvel", "clinker",
          "trenail", "mortise", "tenon", "rabbet", "chock", "spile")
CAPTION_WORDS = ("plate", "figure", "drawing", "section", "profile", "plan",
                 "elevation", "detail", "hull", "ship", "vessel", "galleon")

# Label perturbations for eval truth, with the label score each must get
# from evaluation.label_score under the merged glossary and the packaged
# ontology: (pred entry, truth entry) pairs per relation.
ANCESTOR_PAIRS = (("heel", "sternpost"), ("floor timber", "frame"))
RELATED_PAIRS = (("keel", "sternpost"), ("rider frame", "frame"))
UNRELATED_PAIRS = (("scarf", "keel"), ("stern knee", "heel"))
KIND_SCORES = {"same": 1.0, "ancestor": 0.5, "related": 0.25, "unrelated": 0.0}


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _box_blur(a: np.ndarray, r: int) -> np.ndarray:
    k = 2 * r + 1
    p = np.pad(a, r, mode="edge")
    c = np.pad(p, ((1, 0), (1, 0))).cumsum(0).cumsum(1)
    return (c[k:, k:] - c[:-k, k:] - c[k:, :-k] + c[:-k, :-k]) / (k * k)


def noise_page(side: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform noise box-blurred three times, stretched to 0..255."""
    a = rng.integers(0, 256, (side, side)).astype(np.float64)
    for _ in range(3):
        a = _box_blur(a, 1)
    a = (a - a.min()) / max(a.max() - a.min(), 1e-9) * 255.0
    return np.rint(a).astype(np.uint8)


def figures_page(side: int, rng: np.random.Generator) -> np.ndarray:
    """Four dark ellipses, one per quadrant, on a smooth light diagonal
    ramp, softened by one blur and faint grain."""
    yy, xx = np.mgrid[0:side, 0:side]
    g = 190.0 + 40.0 * (xx + yy) / (2 * side)
    q = side // 2
    for qx, qy in ((0, 0), (q, 0), (0, q), (q, q)):
        cx, cy = rng.integers(q // 3, q - q // 3, 2) + (qx, qy)
        rx, ry = rng.integers(q // 5, q // 3, 2)
        g[((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0] = rng.integers(30, 70)
    g = _box_blur(g, 2) + rng.normal(0.0, 1.0, g.shape)
    return np.rint(np.clip(g, 0, 255)).astype(np.uint8)


def page_bytes(kind: str, side: int, rng: np.random.Generator) -> bytes:
    px = noise_page(side, rng) if kind == "noise" else figures_page(side, rng)
    return raster.encode_pgm(raster.ImageGrid(px))


def write_bytes(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def write_manifest(path: str, images: list[str], title: str) -> None:
    """Manifest listing images relative to the manifest's directory."""
    doc = {"treatises": [{"title": title, "language": "en", "year": 1700,
                          "images": images}]}
    write_bytes(path, json.dumps(doc, indent=1).encode("utf-8"))


def native_corpus(root: str, seed: int) -> list[dict]:
    """One page per (kind, side), copied under one directory per h value,
    each directory with its manifest. Returns one item per (page, h)."""
    blobs = {(kind, side): page_bytes(kind, side, _rng(seed, 1, i))
             for i, (kind, side) in enumerate(NATIVE_PAGES)}
    items = []
    for h in NATIVE_H:
        d = os.path.join(root, f"h{h}")
        os.makedirs(d)
        names = []
        for (kind, side), blob in blobs.items():
            name = f"{kind}{side}.pgm"
            write_bytes(os.path.join(d, name), blob)
            names.append(name)
            items.append({"page": os.path.join(d, name), "h": h, "bytes": blob})
        write_manifest(os.path.join(d, "manifest.json"), names, f"native h={h}")
    return items


def labeled_corpus(root: str, seed: int) -> list[dict]:
    """Small pages of both kinds for the labeling pipeline, plus a manifest."""
    os.makedirs(root, exist_ok=True)
    items, names = [], []
    for i in range(LABELED_PAGES):
        kind = "noise" if i % 2 else "figures"
        blob = page_bytes(kind, LABELED_SIDE, _rng(seed, 2, i))
        name = f"p{i:03d}.pgm"
        write_bytes(os.path.join(root, name), blob)
        names.append(name)
        items.append({"page": os.path.join(root, name), "bytes": blob})
    write_manifest(os.path.join(root, "manifest.json"), names, "labeled")
    return items


def merged_glossary_bytes() -> bytes:
    """The packaged hull-part and frame glossaries as one file, so every
    ontology concept with a gloss link is reachable from label text."""
    entries = {}
    for name in ("glossary_fig4.json", "glossary_frames.json"):
        entries.update(json.loads(fixtures.read_bytes(name))["entries"])
    return json.dumps({"entries": entries}, sort_keys=True, indent=1).encode("utf-8")


class Vocabulary:
    """Surface forms of the merged glossary, with the concept each links to."""

    def __init__(self):
        doc = json.loads(merged_glossary_bytes())["entries"]
        onto = json.loads(fixtures.read_bytes("ontology_fig6.json"))["concepts"]
        concept_of = {c["gloss_id"]: cid for cid, c in onto.items() if "gloss_id" in c}
        self.variants = {eid: [v for vs in e["variants"].values() for v in vs]
                         for eid, e in sorted(doc.items())}
        self.definition = {eid: e["definitions"].get("en") for eid, e in doc.items()}
        self.concept = concept_of
        self.entry_of = {v: eid for eid, vs in self.variants.items() for v in vs}
        self.surface = sorted(self.entry_of)

    def label(self, text: str, confidence: float, source: str) -> LabelAssignment:
        eid = self.entry_of.get(text)
        if eid is None:
            return LabelAssignment(text=text, confidence=confidence, source=source)
        return LabelAssignment(text=text, confidence=confidence, source=source,
                               concept_id=self.concept.get(eid),
                               definition=self.definition.get(eid))


_CELL = 64
_GRID = 4  # 4x4 cells on a 256x256 frame


def _rect_outline(w: int, h: int) -> list:
    """Border pixels of a filled w x h rectangle (w, h >= 2), clockwise
    from the top-left corner, as a Moore trace lists them."""
    return ([(x, 0) for x in range(w)] + [(w - 1, y) for y in range(1, h)]
            + [(x, h - 1) for x in range(w - 2, -1, -1)]
            + [(0, y) for y in range(h - 2, 0, -1)])


def _write_record(record: ImageRecord, path: str) -> None:
    """Canonical sidecar bytes, unvalidated: the program checks them on read."""
    write_bytes(path, catalog.canonical_json_bytes(catalog.record_to_obj(record)))


def _rect_segment(seg_id: int, x: int, y: int, w: int, h: int) -> raster.Segment:
    """A filled rectangle as a Segment: tight box, full mask, traced outline."""
    return raster.Segment(
        id=seg_id, bbox=raster.BoundingBox(x, y, w, h),
        mask=raster.MaskRLE(w, h, (0, w * h)), area=w * h,
        contour=tuple((px + x, py + y) for px, py in _rect_outline(w, h)))


def query_corpus(root: str, seed: int, vocab: Vocabulary) -> dict:
    """QUERY_RECORDS labeled sidecars, the first EVAL_PAIRS of them paired
    with a perturbed truth sidecar, and the seeded search queries.

    Each record has 3 to 8 rectangles in distinct cells of a 4x4 grid with
    one label each, so eval matching is unambiguous and its expected report
    follows from the perturbations alone."""
    rng = _rng(seed, 3)
    sc_dir = os.path.join(root, "sidecars")
    truth_dir = os.path.join(root, "truth")
    os.makedirs(sc_dir)
    os.makedirs(truth_dir)
    sidecars, records, pairs = [], [], []
    for i in range(QUERY_RECORDS):
        image_bytes = f"treatise page {seed}:{i}".encode("ascii")
        cells = rng.permutation(_GRID * _GRID)
        n_seg = int(rng.integers(3, 9))
        segments, assignments, boxes = [], {}, []
        for s in range(n_seg):
            cx, cy = int(cells[s] % _GRID) * _CELL, int(cells[s] // _GRID) * _CELL
            w, h = (int(v) for v in rng.integers(12, 33, 2))
            x = cx + 4 + int(rng.integers(0, _CELL - 8 - w + 1))
            y = cy + 4 + int(rng.integers(0, _CELL - 8 - h + 1))
            segments.append(_rect_segment(s + 1, x, y, w, h))
            boxes.append((x, y, w, h))
            text = (vocab.surface[int(rng.integers(len(vocab.surface)))]
                    if rng.random() < 0.7 else FILLER[int(rng.integers(len(FILLER)))])
            conf = round(0.5 + 0.5 * float(rng.random()), 3)
            assignments[s + 1] = (vocab.label(text, conf, "tagger"),)
        caption = None
        if rng.random() < 0.5:
            caption = " ".join(CAPTION_WORDS[int(k)] for k in
                               rng.integers(0, len(CAPTION_WORDS), int(rng.integers(2, 6))))
        record = ImageRecord(
            image_id=catalog.image_id_for(image_bytes), source_path=f"page{i:04d}.pgm",
            width=_GRID * _CELL, height=_GRID * _CELL, segments=tuple(segments),
            assignments=assignments, image_caption=caption,
            provenance=Provenance(method="M4", timestamp="2024-01-01T00:00:00Z"))
        path = os.path.join(sc_dir, f"r{i:04d}.json")
        _write_record(record, path)
        sidecars.append(path)
        records.append(record)
        if i < EVAL_PAIRS:
            tpath = os.path.join(truth_dir, f"t{i:04d}.json")
            expect = _write_truth(record, boxes, cells[n_seg:], rng, vocab, tpath)
            pairs.append({"pred": path, "truth": tpath, **expect})
    return {"sidecars": sidecars, "records": records, "pairs": pairs,
            "queries": _queries(rng, vocab)}


def _jitter(box, rng):
    x, y, w, h = box
    d = rng.integers(-1, 2, 4)
    return (x + int(d[0]), y + int(d[1]), max(w + int(d[2]), 1), max(h + int(d[3]), 1))


def _iou(a, b) -> float:
    ix = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
    iy = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
    inter = max(ix, 0) * max(iy, 0)
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def _truth_text(pred_text: str, kind: str, vocab: Vocabulary, rng) -> tuple[str, str]:
    """A truth label in `kind` relation to the prediction. A prediction with
    no partner for that relation gets an unrelated filler word instead.
    Returns (text, kind actually used)."""
    eid = vocab.entry_of.get(pred_text)
    if kind == "same":
        pool = vocab.variants[eid] if eid else [pred_text]
    else:
        table = {"ancestor": ANCESTOR_PAIRS, "related": RELATED_PAIRS,
                 "unrelated": UNRELATED_PAIRS}[kind]
        partners = [b for a, b in table if a == eid] + [a for a, b in table if b == eid]
        if partners:
            pool = vocab.variants[partners[int(rng.integers(len(partners)))]]
        else:
            kind, pool = "unrelated", [f for f in FILLER if f != pred_text]
    return pool[int(rng.integers(len(pool)))], kind


def _write_truth(record, boxes, free_cells, rng, vocab, path) -> dict:
    """Perturb a prediction into a human truth record: jitter every kept box,
    relabel it by a drawn relation, drop some boxes (false positives) and add
    boxes in free cells (false negatives). Returns the report the evaluator
    must produce for the pair."""
    segments, assignments = [], {}
    tp = fp = 0
    sum_iou = sum_score = 0.0
    for seg, box in zip(record.segments, boxes):
        if rng.random() < 0.1:
            fp += 1
            continue
        tbox = _jitter(box, rng)
        kind = ("same", "ancestor", "related", "unrelated")[int(rng.integers(4))]
        text, kind = _truth_text(record.assignments[seg.id][0].text, kind, vocab, rng)
        sid = len(segments) + 1
        segments.append(_rect_segment(sid, *tbox))
        assignments[sid] = (vocab.label(text, 1.0, "human"),)
        tp += 1
        sum_iou += _iou(box, tbox)
        sum_score += KIND_SCORES[kind]
    fn = int(rng.integers(0, 3))
    for cell in free_cells[:fn]:
        x, y = int(cell % _GRID) * _CELL + 8, int(cell // _GRID) * _CELL + 8
        sid = len(segments) + 1
        segments.append(_rect_segment(sid, x, y, 24, 24))
        assignments[sid] = (vocab.label(FILLER[int(rng.integers(len(FILLER)))], 1.0, "human"),)
    truth = ImageRecord(
        image_id=record.image_id, source_path=record.source_path,
        width=record.width, height=record.height, segments=tuple(segments),
        assignments=assignments,
        provenance=Provenance(method="M4", timestamp="2024-01-01T00:00:00Z"))
    _write_record(truth, path)
    return {"tp": tp, "fp": fp, "fn": fn, "sum_iou": sum_iou, "sum_score": sum_score}


def _queries(rng, vocab: Vocabulary) -> list[list[str]]:
    """CLI argument tails for `search`: plain, --expand, --expand --hops 1,
    and --kind image/segment, over surface forms and filler words."""
    out = []
    for q in range(QUERIES):
        n_terms = int(rng.integers(1, 3))
        terms = [vocab.surface[int(rng.integers(len(vocab.surface)))]
                 if rng.random() < 0.75 else FILLER[int(rng.integers(len(FILLER)))]
                 for _ in range(n_terms)]
        args = ["--query", " ".join(terms)]
        mode = q % 4
        if mode == 1:
            args.append("--expand")
        elif mode == 2:
            args += ["--expand", "--hops", "1"]
        elif mode == 3:
            args += ["--kind", ("image", "segment")[q // 4 % 2]]
        out.append(args)
    return out


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()
