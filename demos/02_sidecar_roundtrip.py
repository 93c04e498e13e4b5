"""Segment an image, persist the result as a sidecar file, and check it.

Every image gets a JSON sidecar at <image>.segments.json. The record inside
carries the image hash, so stale or swapped sidecars are caught on read.
Run with:

    python3 demos/02_sidecar_roundtrip.py
"""

import json
import tempfile
from pathlib import Path

from treatise.catalog import (
    read_sidecar,
    render_overlay,
    sidecar_path,
    validate_record,
    write_sidecar,
)
from treatise.pipeline import PipelineConfig, run_pipeline
from treatise.raster import ImageGrid, decode_pgm, encode_pgm

PAGE = [
    [0, 0, 9, 9],
    [0, 0, 9, 9],
    [5, 5, 7, 7],
    [5, 5, 7, 7],
]


def main(workdir: Path):
    image_path = workdir / "page.pgm"
    grid = ImageGrid.from_list(4, 4, [v for row in PAGE for v in row])
    blob = encode_pgm(grid)
    image_path.write_bytes(blob)

    record = run_pipeline(blob, PipelineConfig(method="native"),
                          source_path=str(image_path))
    out = sidecar_path(image_path)
    write_sidecar(record, out)
    print(f"wrote {out}")

    obj = json.loads(Path(out).read_text())
    print("sidecar keys:", ", ".join(sorted(obj)))
    print(f"{len(obj['segments'])} segments, image_id {obj['image_id'][:12]}...")

    # reading back gives an identical record
    again = read_sidecar(Path(out).read_bytes())
    assert again == record
    print("read-back record equals the original")

    # validation against the actual pixels catches a swapped image
    print("against the right image:", validate_record(again, blob) or "valid")
    tampered = blob[:-1] + bytes([blob[-1] ^ 1])
    problems = validate_record(again, tampered)
    print("against a tampered image:", problems[0])

    overlay = render_overlay(decode_pgm(blob), record)
    overlay_path = workdir / "page.overlay.pgm"
    overlay_path.write_bytes(encode_pgm(overlay))
    print(f"overlay with line pixels burned in -> {overlay_path}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="treatise-demo-") as tmp:
        main(Path(tmp))
