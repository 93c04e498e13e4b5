"""Random valid ImageRecords for roundtrip and validation fuzzing."""

import hashlib
import random

from treatise import raster
from treatise.catalog import ImageRecord, LabelAssignment, Provenance
from treatise.raster import ImageGrid, regional_minima_markers, watershed, extract_segments


def fuzz_record(rng: random.Random) -> tuple[ImageRecord, bytes]:
    """A structurally valid record over a random image. Returns (record,
    image bytes). Segments come from a real watershed run so geometry
    invariants (tight boxes, contours, areas) hold by construction."""
    w, h = rng.randint(1, 10), rng.randint(1, 10)
    pixels = [rng.randint(0, 9) for _ in range(w * h)]
    grid = ImageGrid.from_list(w, h, pixels)
    blob = raster.encode_pgm(grid)

    segmap = watershed(grid, regional_minima_markers(grid))
    segments = extract_segments(segmap)

    sources = ("caption-derived", "tagger", "grounder", "llm", "human")
    words = ("keel", "sternpost", "scarf", "heel", "frame", "plank", "timber")
    assignments = {}
    for seg in segments:
        if rng.random() < 0.6:
            labels = []
            for _ in range(rng.randint(1, 3)):
                labels.append(LabelAssignment(
                    text=rng.choice(words),
                    confidence=round(rng.random(), 3),
                    source=rng.choice(sources),
                    concept_id=rng.choice([None, "Keel", "Frame"]),
                    definition=rng.choice([None, "a long timber."]),
                ))
            assignments[seg.id] = tuple(labels)

    prov = Provenance(
        method=rng.choice(("M1", "M2", "M3", "M4", "M4b", "native")),
        backend_ids={"segment": "http://127.0.0.1:1/v1/segment"} if rng.random() < 0.5 else {},
        prompt_hashes=tuple(
            hashlib.sha256(bytes([rng.randrange(256)])).hexdigest()
            for _ in range(rng.randint(0, 3))
        ),
        degraded=rng.random() < 0.2,
    )
    record = ImageRecord(
        image_id=hashlib.sha256(blob).hexdigest(),
        source_path=f"pages/p{rng.randint(1, 99)}.pgm",
        width=w,
        height=h,
        segments=tuple(segments),
        assignments=assignments,
        provenance=prov,
        image_caption=rng.choice([None, "a hull cross section."]),
        extra={"notes": "fuzzed"} if rng.random() < 0.3 else {},
    )
    return record, blob


def json_nodes(obj, parent, key):
    """(parent, key) of `obj`, then of each value nested in it."""
    yield parent, key
    if isinstance(obj, (dict, list)):
        for k, v in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from json_nodes(v, obj, k)
