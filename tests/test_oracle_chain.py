"""End to end against the oracles: the segments `treatise segment` writes for
a page equal the ones the pure-Python chain in `oracles` derives from the
same pixels, and wire segments are tightened the same way.

The chain is h-minima (for h > 0), regional minima, Sobel relief and
immersion watershed, then per region its tight box, its box-local run
counts, its area and its Moore contour."""

import random

import pytest

import oracles
from conftest import make_pgm, shaped_mask
from treatise.catalog import canonical_json_bytes, read_sidecar, record_to_bytes, record_to_obj
from treatise.cli import main
from treatise.pipeline import PipelineConfig, _segments_from_wire, run_pipeline


def noise_page(rng, w, h):
    """Uniform noise under one 3x3 box blur (edge replicated)."""
    raw = [[rng.randint(0, 200) for _ in range(w)] for _ in range(h)]

    def at(x, y):
        return raw[min(max(y, 0), h - 1)][min(max(x, 0), w - 1)]

    return [[sum(at(x + i, y + j) for i in (-1, 0, 1) for j in (-1, 0, 1)) // 9
             for x in range(w)] for y in range(h)]


def ring_page(rng, side):
    """A light page with a dark ring around a dot and a dark grainy disc,
    so that some region encloses another: a contour with a hole walk."""
    c = side // 3
    rows = []
    for y in range(side):
        row = []
        for x in range(side):
            d2 = (x - c) ** 2 + (y - c) ** 2
            e2 = (x - side + c) ** 2 + (y - side + c) ** 2
            if d2 <= 1:
                row.append(60)
            elif 5 <= d2 <= 13:
                row.append(30)
            elif e2 <= 4:
                row.append(40 + rng.randint(0, 3))
            else:
                row.append(150)
        rows.append(row)
    return rows


def oracle_segments(pixels, h):
    """(id, box, counts, area, contour) per region of the oracle chain."""
    markers = oracles.minima_oracle(oracles.hminima_oracle(pixels, h) if h else pixels)
    labels = oracles.watershed_oracle(oracles.sobel_oracle(pixels), markers)
    return [(rid, *oracle_region(labels, rid, 0, 0))
            for rid in sorted({v for row in labels for v in row if v > 0})]


def oracle_region(labels, rid, x, y):
    """Box, run counts, area and contour of the pixels equal to rid in a
    grid of rows whose top-left pixel sits at (x, y)."""
    ys = [j for j, row in enumerate(labels) if rid in row]
    xs = [i for row in labels for i, v in enumerate(row) if v == rid]
    x0, y0 = min(xs), ys[0]
    w, h = max(xs) - x0 + 1, ys[-1] - y0 + 1
    local = [[int(v == rid) for v in row[x0 : x0 + w]] for row in labels[y0 : y0 + h]]
    bits = [b for row in local for b in row]
    contour = [(cx + x0 + x, cy + y0 + y) for cx, cy in oracles.moore_oracle(local)]
    return [x0 + x, y0 + y, w, h], oracles.rle_oracle(bits), sum(bits), contour


def record_segments(segments):
    return [(s.id, s.bbox.as_list(), list(s.mask.counts), s.area, list(s.contour))
            for s in segments]


PAGES = [("noise", seed) for seed in range(3)] + [("ring", seed) for seed in range(3)]


@pytest.mark.parametrize("h", [0, 2, 4])
@pytest.mark.parametrize("kind, seed", PAGES)
def test_segment_sidecar_matches_oracle_chain(tmp_path, kind, seed, h):
    rng = random.Random(f"{kind}-{seed}")
    if kind == "noise":
        pixels = noise_page(rng, rng.randint(8, 14), rng.randint(8, 14))
    else:
        pixels = ring_page(rng, rng.randint(14, 18))
    image = tmp_path / "page.pgm"
    image.write_bytes(make_pgm(pixels))
    out = tmp_path / "page.json"
    assert main(["segment", "--in", str(image), "--out", str(out), "--h", str(h)]) == 0
    got = record_segments(read_sidecar(out.read_bytes()).segments)
    assert got == oracle_segments(pixels, h)


@pytest.mark.parametrize("h", [0, 4])
@pytest.mark.parametrize("kind, seed", PAGES)
def test_sidecar_bytes_are_the_canonical_dump_of_the_record(kind, seed, h):
    rng = random.Random(f"{kind}-{seed}")
    if kind == "noise":
        pixels = noise_page(rng, rng.randint(8, 14), rng.randint(8, 14))
    else:
        pixels = ring_page(rng, rng.randint(14, 18))
    record = run_pipeline(make_pgm(pixels), PipelineConfig(method="native", h_threshold=h))
    assert record.segments
    assert record_to_bytes(record) == canonical_json_bytes(record_to_obj(record))


def test_ring_pages_have_a_region_with_a_hole():
    # a hole is a pixel of a region's box, outside the region, that no
    # 4-path of such pixels joins to the box edge
    for seed in range(3):
        rng = random.Random(f"ring-{seed}")
        pixels = ring_page(rng, rng.randint(14, 18))
        for h in (0, 2, 4):
            assert any(has_hole(counts, box[2], box[3])
                       for _, box, counts, _, _ in oracle_segments(pixels, h))


def has_hole(counts, w, h):
    bits = [i % 2 for i, n in enumerate(counts) for _ in range(n)]
    outside = {(x, y) for y in range(h) for x in range(w)
               if not bits[y * w + x] and (x in (0, w - 1) or y in (0, h - 1))}
    stack = list(outside)
    while stack:
        x, y = stack.pop()
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if (0 <= nx < w and 0 <= ny < h and not bits[ny * w + nx]
                    and (nx, ny) not in outside):
                outside.add((nx, ny))
                stack.append((nx, ny))
    return bits.count(0) > len(outside)


def wire_mask(rng, empty):
    """Rows of a shaped 0/1 mask (all zero when empty) with empty rows and
    columns added around it."""
    w, h = rng.randint(1, 10), rng.randint(1, 10)
    bits = [[0] * w for _ in range(h)] if empty else shaped_mask(rng, w, h)
    for _ in range(rng.randint(0, 2)):
        bits = [[0] * w] + bits if rng.random() < 0.5 else bits + [[0] * w]
    for _ in range(rng.randint(0, 2)):
        bits = [[0] + r for r in bits] if rng.random() < 0.5 else [r + [0] for r in bits]
    return bits


def test_wire_segments_match_oracles():
    rng = random.Random(11)
    for _ in range(150):
        resp, expect = {"segments": []}, []
        for _ in range(rng.randint(1, 4)):
            bits = wire_mask(rng, empty=rng.random() < 0.2)
            x, y = rng.randint(0, 5), rng.randint(0, 5)
            resp["segments"].append({"bbox": [x, y, len(bits[0]), len(bits)], "mask": {
                "counts": oracles.rle_oracle([b for r in bits for b in r])}})
            if any(map(any, bits)):  # empty masks are dropped, ids count the rest
                expect.append((len(expect) + 1, *oracle_region(bits, 1, x, y)))
        assert record_segments(_segments_from_wire(resp, 20, 20)) == expect
