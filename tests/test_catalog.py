import hashlib
import json
import random
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import make_pgm
from recordgen import fuzz_record
from treatise.catalog import (
    ImageRecord,
    LabelAssignment,
    ManifestError,
    Provenance,
    SidecarFormatError,
    SidecarValidationError,
    box_iou,
    canonical_json_bytes,
    image_id_for,
    load_manifest,
    parse_timestamp,
    read_sidecar,
    record_from_obj,
    record_to_bytes,
    record_to_obj,
    render_overlay,
    sidecar_path,
    utc_timestamp,
    validate_record,
    write_sidecar,
)
from treatise.raster import BoundingBox, MaskRLE, Segment, decode_pgm


def simple_record(w=3, h=2, blob=None):
    """One full-frame segment, one assignment."""
    blob = blob if blob is not None else make_pgm([[10] * w] * h)
    seg = Segment(
        id=1,
        bbox=BoundingBox(0, 0, w, h),
        mask=MaskRLE(w, h, (0, w * h)),
        area=w * h,
        contour=tuple((x, y) for y in range(h) for x in range(w)
                      if x in (0, w - 1) or y in (0, h - 1)),
    )
    return ImageRecord(
        image_id=image_id_for(blob),
        source_path="page.pgm",
        width=w,
        height=h,
        segments=(seg,),
        assignments={1: (LabelAssignment(text="keel", confidence=0.5, source="tagger"),)},
        provenance=Provenance(method="native", backend_ids={}, prompt_hashes=()),
    ), blob


class TestCanonicalJson:
    def test_sorted_compact_utf8(self):
        data = canonical_json_bytes({"b": 1, "a": [1, 2], "ç": "ação"})
        assert data == '{"a":[1,2],"b":1,"ç":"ação"}'.encode("utf-8")

    def test_equal_objects_equal_bytes(self):
        a = {"x": {"b": 2, "a": 1}, "y": [3]}
        b = {"y": [3], "x": {"a": 1, "b": 2}}
        assert canonical_json_bytes(a) == canonical_json_bytes(b)


class TestRoundtrip:
    def test_zero_segments(self):
        rec = ImageRecord(
            image_id="0" * 64, source_path="p.pgm", width=2, height=2,
            segments=(), assignments={},
            provenance=Provenance(method="native", backend_ids={}, prompt_hashes=()),
        )
        obj = record_to_obj(rec)
        assert obj["segments"] == []
        assert record_from_obj(json.loads(record_to_bytes(rec))) == rec

    def test_simple_roundtrip(self, tmp_path):
        rec, _ = simple_record()
        out = tmp_path / "page.segments.json"
        write_sidecar(rec, out)
        assert read_sidecar(out.read_bytes()) == rec

    def test_fuzzed_roundtrip_200(self):
        rng = random.Random(123)
        for _ in range(200):
            rec, blob = fuzz_record(rng)
            data = record_to_bytes(rec)
            back = read_sidecar(data)
            assert back == rec
            assert hash(back.segments) == hash(rec.segments)
            assert validate_record(back, blob) == []

    def test_field_order_insensitive_bytes(self):
        rng = random.Random(5)

        def shuffled(obj):
            if isinstance(obj, dict):
                items = [(k, shuffled(v)) for k, v in obj.items()]
                rng.shuffle(items)
                return dict(items)
            if isinstance(obj, list):
                return [shuffled(v) for v in obj]
            return obj

        for _ in range(25):
            rec, _ = fuzz_record(rng)
            base = record_to_bytes(rec)
            scrambled = json.dumps(shuffled(json.loads(base)))
            again = record_to_bytes(record_from_obj(json.loads(scrambled)))
            assert again == base

    def test_missing_segments_key(self):
        rec, _ = simple_record()
        obj = record_to_obj(rec)
        del obj["segments"]
        with pytest.raises(SidecarFormatError) as err:
            record_from_obj(obj)
        assert err.value.path == "/segments"

    def test_foreign_key_preserved(self):
        rec, _ = simple_record()
        obj = record_to_obj(rec)
        obj["notes"] = {"reviewer": "jb"}
        back = record_from_obj(obj)
        assert back.extra["notes"] == {"reviewer": "jb"}
        assert json.loads(record_to_bytes(back))["notes"] == {"reviewer": "jb"}

    def test_bool_not_accepted_as_int(self):
        rec, _ = simple_record()
        obj = record_to_obj(rec)
        obj["width"] = True
        with pytest.raises(SidecarFormatError):
            record_from_obj(obj)

    @pytest.mark.parametrize("field, value, path, message", [
        ("bbox", [0, 0, 3, True], "/segments/0/bbox", "expected a list of 4 integers"),
        ("bbox", [0, 0, 3], "/segments/0/bbox", "expected a list of 4 integers"),
        ("counts", [0, 6.0], "/segments/0/mask/counts", "counts must be integers"),
        ("counts", [False, 6], "/segments/0/mask/counts", "counts must be integers"),
        ("contour", [[0, 0], [1, True]], "/segments/0/contour/1", "expected a list of 2 integers"),
        ("contour", [[0, 0], [1.0, 0]], "/segments/0/contour/1", "expected a list of 2 integers"),
        ("contour", [[0, 0, 0]], "/segments/0/contour/0", "expected a list of 2 integers"),
        ("contour", [[0, 0], 7], "/segments/0/contour/1", "expected a list of 2 integers"),
    ])
    def test_segment_numbers_must_be_ints(self, field, value, path, message):
        rec, _ = simple_record()
        obj = record_to_obj(rec)
        seg = obj["segments"][0]
        (seg["mask"] if field == "counts" else seg)[field] = value
        with pytest.raises(SidecarFormatError) as err:
            record_from_obj(obj)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("field, value, path, message", [
        ("id", 1.0, "/segments/0/id", "unexpected type float"),
        ("id", True, "/segments/0/id", "unexpected type bool"),
        ("id", np.int64(1), "/segments/0/id", "unexpected type int64"),
        ("bbox", BoundingBox(0.0, 0, 3, 2), "/segments/0/bbox", "expected a list of 4 integers"),
        ("bbox", BoundingBox(False, 0, 3, 2), "/segments/0/bbox", "expected a list of 4 integers"),
        ("bbox", BoundingBox(np.int64(0), 0, 3, 2), "/segments/0/bbox",
         "expected a list of 4 integers"),
        ("area", 6.0, "/segments/0/area", "unexpected type float"),
        ("area", np.int64(6), "/segments/0/area", "unexpected type int64"),
        ("counts", (0, 6.0), "/segments/0/mask/counts", "counts must be integers"),
        ("counts", (False, 6), "/segments/0/mask/counts", "counts must be integers"),
        ("counts", (0, np.int64(6)), "/segments/0/mask/counts", "counts must be integers"),
        ("contour", ((0, 0), (1.0, 0)), "/segments/0/contour/1", "expected a list of 2 integers"),
        ("contour", ((0, 0), (1, True)), "/segments/0/contour/1", "expected a list of 2 integers"),
        ("contour", ((np.int64(0), 0),), "/segments/0/contour/0", "expected a list of 2 integers"),
    ])
    def test_write_rejects_what_the_reader_rejects(self, tmp_path, field, value, path, message):
        # the template writes every value with %d, which would print these
        # as ints; the write refuses them with the reader's path and message
        rec, _ = simple_record()
        seg = rec.segments[0]
        if field == "counts":
            seg = replace(seg, mask=MaskRLE(3, 2, value))
        else:
            seg = replace(seg, **{field: value})
        rec = replace(rec, segments=(seg,))
        dest = tmp_path / "page.segments.json"
        with pytest.raises(SidecarValidationError) as err:
            write_sidecar(rec, dest)
        assert str(err.value) == f"{path}: {message}"
        assert not dest.exists()
        with pytest.raises(SidecarFormatError) as read_err:
            record_from_obj(record_to_obj(rec))
        assert str(read_err.value) == str(err.value)

    def test_bytes_are_the_canonical_dump_of_the_object(self):
        # foreign keys on both sides of "segments", non-ASCII text, no segments
        rng = random.Random(16)
        extras = ({}, {"aa": [1, {"z": "é"}], "sa": 1.5, "segmentz": None, "zz": "ü",
                       "": True, "segments": "shadowed", "image_caption": "from extra"})
        for _ in range(150):
            rec, _ = fuzz_record(rng)
            for r in (rec,
                      replace(rec, extra=rng.choice(extras),
                              image_caption=rng.choice((None, "ação naval — ½ 船"))),
                      replace(rec, segments=(), assignments={}, extra=rng.choice(extras))):
                assert record_to_bytes(r) == canonical_json_bytes(record_to_obj(r))

    def test_unsupported_schema_version(self):
        rec, _ = simple_record()
        obj = record_to_obj(rec)
        obj["schema_version"] = 2
        with pytest.raises(SidecarFormatError):
            record_from_obj(obj)

    def test_read_sidecar_rejects_invalid(self):
        rec, _ = simple_record()
        obj = record_to_obj(rec)
        obj["segments"][0]["bbox"] = [0, 0, 99, 99]
        with pytest.raises(SidecarValidationError):
            read_sidecar(json.dumps(obj))

    def test_write_is_atomic_no_partial_file(self, tmp_path):
        rec, _ = simple_record()
        dest = tmp_path / "out.json"
        write_sidecar(rec, dest)
        leftovers = [p for p in tmp_path.iterdir() if p != dest]
        assert leftovers == []


class TestValidate:
    def test_ok(self):
        rec, blob = simple_record()
        assert validate_record(rec, blob) == []

    def test_bbox_past_frame(self):
        rec, _ = simple_record()
        seg = rec.segments[0]
        bad = Segment(id=1, bbox=BoundingBox(1, 0, 3, 2), mask=seg.mask,
                      area=seg.area, contour=seg.contour)
        rec2 = ImageRecord(**{**rec.__dict__, "segments": (bad,)})
        paths = [v.path for v in validate_record(rec2)]
        assert "/segments/0/bbox" in paths

    def test_assignment_absent_segment(self):
        rec, _ = simple_record()
        rec2 = ImageRecord(**{**rec.__dict__, "assignments": {
            9: (LabelAssignment(text="keel", confidence=1.0, source="human"),)}})
        paths = [v.path for v in validate_record(rec2)]
        assert "/assignments/9" in paths

    def test_area_mismatch(self):
        rec, _ = simple_record()
        seg = rec.segments[0]
        bad = Segment(id=1, bbox=seg.bbox, mask=seg.mask, area=seg.area - 1,
                      contour=seg.contour)
        rec2 = ImageRecord(**{**rec.__dict__, "segments": (bad,)})
        assert any(v.path == "/segments/0/area" for v in validate_record(rec2))

    def test_loose_bbox(self):
        # 3x2 mask with only middle column set, box not tight
        blob = make_pgm([[10] * 3] * 2)
        seg = Segment(id=1, bbox=BoundingBox(0, 0, 3, 2),
                      mask=MaskRLE(3, 2, (1, 1, 2, 1, 1)), area=2,
                      contour=((1, 0), (1, 1)))
        rec = ImageRecord(
            image_id=image_id_for(blob), source_path="p.pgm", width=3, height=2,
            segments=(seg,), assignments={},
            provenance=Provenance(method="native", backend_ids={}, prompt_hashes=()),
        )
        assert any("not tight" in v.message for v in validate_record(rec))

    def test_contour_pixel_outside_mask(self):
        rec, _ = simple_record(3, 3)
        seg = rec.segments[0]
        bad = Segment(id=1, bbox=seg.bbox, mask=seg.mask, area=seg.area,
                      contour=seg.contour + ((9, 9),))
        rec2 = ImageRecord(**{**rec.__dict__, "segments": (bad,)})
        assert any("not in mask" in v.message for v in validate_record(rec2))

    def test_interior_contour_pixel(self):
        rec, _ = simple_record(3, 3)
        seg = rec.segments[0]
        bad = Segment(id=1, bbox=seg.bbox, mask=seg.mask, area=seg.area,
                      contour=seg.contour + ((1, 1),))
        rec2 = ImageRecord(**{**rec.__dict__, "segments": (bad,)})
        assert any("interior" in v.message for v in validate_record(rec2))

    def test_image_hash_mismatch(self):
        rec, blob = simple_record()
        assert validate_record(rec, blob) == []
        assert any(v.path == "/image_id"
                   for v in validate_record(rec, blob + b"x"))

    def test_confidence_out_of_range(self):
        rec, _ = simple_record()
        rec2 = ImageRecord(**{**rec.__dict__, "assignments": {
            1: (LabelAssignment(text="keel", confidence=1.5, source="human"),)}})
        assert any("confidence" in v.path for v in validate_record(rec2))

    def test_unknown_source_and_method(self):
        rec, _ = simple_record()
        rec2 = ImageRecord(**{**rec.__dict__, "assignments": {
            1: (LabelAssignment(text="keel", confidence=1.0, source="oracle"),)}})
        assert any("/source" in v.path for v in validate_record(rec2))
        rec3 = ImageRecord(**{**rec.__dict__, "provenance": Provenance(
            method="M9", backend_ids={}, prompt_hashes=())})
        assert any(v.path == "/provenance/method" for v in validate_record(rec3))

    def test_empty_text_after_normalization(self):
        rec, _ = simple_record()
        rec2 = ImageRecord(**{**rec.__dict__, "assignments": {
            1: (LabelAssignment(text="  ", confidence=1.0, source="human"),)}})
        assert any(v.path.endswith("/text") for v in validate_record(rec2))

    def test_bad_prompt_hash(self):
        rec, _ = simple_record()
        rec2 = ImageRecord(**{**rec.__dict__, "provenance": Provenance(
            method="native", backend_ids={}, prompt_hashes=("zz",))})
        assert any("prompt_hashes" in v.path for v in validate_record(rec2))

    def test_violations_match_the_geometry_oracle(self):
        rng = random.Random(2026)
        mutated = 0
        for _ in range(3000):
            rec, _ = fuzz_record(rng)
            if rec.segments:
                segments = list(rec.segments)
                for _ in range(rng.randint(1, 3)):
                    i = rng.randrange(len(segments))
                    segments[i] = _mutate_segment(rng, segments[i], segments, rec)
                rec = replace(rec, segments=tuple(segments))
            got = [(v.path, v.message) for v in validate_record(rec)]
            assert got == _oracle_violations(rec)
            mutated += bool(got)
        assert mutated > 1500


def _mutate_segment(rng, seg, segments, rec):
    """`seg` with one seeded change to its counts, area, contour, box or id."""
    b, counts, contour = seg.bbox, list(seg.mask.counts), list(seg.contour)
    kind = rng.choice(("count", "move unit", "zero runs", "area", "nudge point",
                       "far point", "past frame", "wider", "id"))
    if kind == "count":
        k = rng.randrange(len(counts))
        counts[k] += rng.choice((-5, -1, 1, 5))
    elif kind == "move unit" and len(counts) > 1:
        k = rng.randrange(len(counts) - 1)
        step = rng.choice((-1, 1))
        counts[k] -= step
        counts[k + 1] += step
    elif kind == "zero runs":
        counts = [0, 0] + counts + [0, 0]
    elif kind == "area":
        return replace(seg, area=seg.area + rng.choice((-1, 1)))
    elif kind == "nudge point" and contour:
        j = rng.randrange(len(contour))
        x, y = contour[j]
        contour[j] = (x + rng.randint(-2, 2), y + rng.randint(-2, 2))
    elif kind == "far point":
        contour.append(rng.choice(((b.x + b.w + 1000, b.y), (-7, -7), (10**6, 10**6))))
    elif kind == "past frame":
        if rng.random() < 0.5:
            b = BoundingBox(max(b.x, rec.width - b.w) + rng.randint(1, 3), b.y, b.w, b.h)
        else:
            b = BoundingBox(b.x, max(b.y, rec.height - b.h) + rng.randint(1, 3), b.w, b.h)
    elif kind == "wider":
        bits = [k % 2 for k, run in enumerate(counts) for _ in range(run)]
        rows = [bits[r * b.w:(r + 1) * b.w] for r in range(b.h)]
        if b.x > 0 and rng.random() < 0.5:
            rows = [[0] + row for row in rows]
            b = BoundingBox(b.x - 1, b.y, b.w + 1, b.h)
        else:
            rows = [row + [0] for row in rows]
            b = BoundingBox(b.x, b.y, b.w + 1, b.h)
        counts = oracles.rle_oracle([v for row in rows for v in row])
    elif kind == "id":
        return replace(seg, id=rng.choice((0, -1, rng.choice(segments).id)))
    return replace(seg, bbox=b, mask=MaskRLE(b.w, b.h, tuple(counts)), contour=tuple(contour))


def _oracle_violations(rec):
    """(path, message) of each violation validate_record must report for a
    fuzzed record whose only faults are in its segments, mask geometry from
    oracles.validate_geometry_oracle."""
    out, seen = [], set()
    for i, seg in enumerate(rec.segments):
        base, b, counts = f"/segments/{i}", seg.bbox, seg.mask.counts
        if seg.id < 1:
            out.append((f"{base}/id", "segment id must be >= 1"))
        if seg.id in seen:
            out.append((f"{base}/id", f"duplicate segment id {seg.id}"))
        seen.add(seg.id)
        if b.x + b.w > rec.width or b.y + b.h > rec.height:
            out.append((f"{base}/bbox", "box extends past the frame"))
        if any(c < 0 for c in counts):
            out.append((f"{base}/mask", "negative run count"))
            continue
        if sum(counts) != b.w * b.h:
            out.append((f"{base}/mask", f"run counts sum to {sum(counts)}, expected {b.w * b.h}"))
            continue
        [(area, tight, codes)] = oracles.validate_geometry_oracle(
            [(b.x, b.y, b.w, b.h, counts, seg.contour)])
        if seg.area != area:
            out.append((f"{base}/area", f"area {seg.area} != {area} set mask pixels"))
        if area == 0:
            out.append((f"{base}/mask", "mask has no set pixels"))
        elif not tight:
            out.append((f"{base}/bbox", "bbox is not tight around the mask"))
        for j, code in enumerate(codes):
            if code < 2:
                message = "contour pixel is interior" if code else "contour pixel not in mask"
                out.append((f"{base}/contour/{j}", message))
    out.extend((f"/assignments/{sid}", f"references absent segment id {sid}")
               for sid in rec.assignments if sid not in seen)
    return out


class TestBoxIou:
    def test_identity(self):
        b = BoundingBox(0, 0, 2, 2)
        assert box_iou(b, b) == 1.0

    def test_disjoint(self):
        assert box_iou(BoundingBox(0, 0, 2, 2), BoundingBox(5, 5, 2, 2)) == 0.0

    def test_one_seventh(self):
        got = box_iou(BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 2, 2))
        assert got == pytest.approx(1 / 7)

    def test_against_cell_oracle(self):
        rng = random.Random(44)
        for _ in range(300):
            a = [rng.randint(0, 6), rng.randint(0, 6), rng.randint(1, 5), rng.randint(1, 5)]
            b = [rng.randint(0, 6), rng.randint(0, 6), rng.randint(1, 5), rng.randint(1, 5)]
            ba, bb = BoundingBox(*a), BoundingBox(*b)
            assert box_iou(ba, bb) == pytest.approx(oracles.box_iou_oracle(a, b))
            assert box_iou(ba, bb) == box_iou(bb, ba)


class TestOverlay:
    def test_no_segments_identity(self):
        blob = make_pgm([[5, 5], [5, 5]])
        grid = decode_pgm(blob)
        rec = ImageRecord(
            image_id=image_id_for(blob), source_path="p.pgm", width=2, height=2,
            segments=(), assignments={},
            provenance=Provenance(method="native", backend_ids={}, prompt_hashes=()),
        )
        assert render_overlay(grid, rec) == grid

    def test_full_frame_segment(self):
        rec, blob = simple_record(3, 3)
        grid = decode_pgm(blob)
        out = render_overlay(grid, rec)
        px = out.pixels
        # box border wins over contour where they coincide
        for x in range(3):
            assert px[0, x] == 0 and px[2, x] == 0
        for y in range(3):
            assert px[y, 0] == 0 and px[y, 2] == 0
        assert px[1, 1] == 10

    def test_diff_only_on_contour_or_border(self):
        rng = random.Random(9)
        for _ in range(30):
            rec, blob = fuzz_record(rng)
            grid = decode_pgm(blob)
            out = render_overlay(grid, rec)
            touched = set()
            for seg in rec.segments:
                touched |= set(seg.contour)
                b = seg.bbox
                for x in range(b.x, b.x + b.w):
                    touched.add((x, b.y))
                    touched.add((x, b.y + b.h - 1))
                for y in range(b.y, b.y + b.h):
                    touched.add((b.x, y))
                    touched.add((b.x + b.w - 1, y))
            for y in range(rec.height):
                for x in range(rec.width):
                    if (x, y) not in touched:
                        assert out.pixels[y, x] == grid.pixels[y, x]
                    else:
                        assert out.pixels[y, x] in (0, 255)

    def test_dimension_mismatch(self):
        rec, _ = simple_record(3, 2)
        grid = decode_pgm(make_pgm([[1, 2], [3, 4]]))
        with pytest.raises(ValueError):
            render_overlay(grid, rec)


class TestTimestamps:
    def test_roundtrip(self):
        ts = utc_timestamp()
        assert ts.endswith("Z")
        parsed = parse_timestamp(ts)
        assert parsed.utcoffset().total_seconds() == 0

    def test_rejects_naive_garbage(self):
        with pytest.raises(ValueError):
            parse_timestamp("yesterday")


class TestManifest:
    GOOD = {
        "year_range": [1570, 1700],
        "treatises": [
            {"title": "Livro A", "language": "pt", "year": 1580,
             "images": ["a1.pgm", "a2.pgm"], "count": 2},
            {"title": "Livro B", "language": "pt", "year": 1616,
             "images": ["b1.pgm"]},
        ],
    }

    def test_load(self):
        m = load_manifest(json.dumps(self.GOOD))
        assert [len(t.images) for t in m.treatises] == [2, 1]
        assert m.treatises[0].title == "Livro A"

    def test_count_mismatch(self):
        doc = json.loads(json.dumps(self.GOOD))
        doc["treatises"][0]["count"] = 5
        with pytest.raises(ManifestError):
            load_manifest(json.dumps(doc))

    def test_year_out_of_range(self):
        doc = json.loads(json.dumps(self.GOOD))
        doc["treatises"][1]["year"] = 1850
        with pytest.raises(ManifestError):
            load_manifest(json.dumps(doc))

    def test_no_year_range_everything_goes(self):
        doc = {"treatises": [{"title": "X", "language": "la", "year": 99,
                              "images": []}]}
        assert load_manifest(json.dumps(doc)).treatises[0].images == ()


def test_sidecar_path():
    assert sidecar_path("dir/page.pgm") == "dir/page.pgm.segments.json"


def test_image_id_is_sha256():
    assert image_id_for(b"abc") == hashlib.sha256(b"abc").hexdigest()
