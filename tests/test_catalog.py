import copy
import functools
import hashlib
import json
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import make_pgm
from recordgen import fuzz_record, json_nodes
from treatise import catalog, parse_json
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
    _segment_from_obj,
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


def _with_point(rec, point):
    """`rec` with the second contour point of its first segment replaced."""
    seg = rec.segments[0]
    contour = seg.contour[:1] + (point,) + seg.contour[2:]
    return replace(rec, segments=(replace(seg, contour=contour),) + rec.segments[1:])


# values of many types, each wrong for some value of a record
_WRONG = (None, True, 1.5, "7", 7, ["x"], {"k": 1}, np.int64(1), np.float64(0.5), (1,),
          (1, 2, 3), (True, 0), b"x")
# what the reader accepts at a value's place, by kind
_ACCEPTS = {
    "int": lambda v: type(v) is int,
    "str": lambda v: isinstance(v, str),
    "str or None": lambda v: v is None or isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "bool": lambda v: type(v) is bool,
    "point": lambda v: type(v) is tuple and len(v) == 2 and all(type(c) is int for c in v),
}


def _slots(rec):
    """(the reader's path, the kind of value it accepts there, a function that returns `rec`
    with that one value replaced) for every value of a record but `extra`."""
    prov = rec.provenance
    out = [(f"/{k}", kind, lambda v, k=k: replace(rec, **{k: v}))
           for k, kind in (("image_id", "str"), ("source_path", "str"), ("width", "int"),
                           ("height", "int"), ("image_caption", "str or None"))]
    out += [(f"/provenance/{k}", kind,
             lambda v, k=k: replace(rec, provenance=replace(prov, **{k: v})))
            for k, kind in (("method", "str"), ("timestamp", "str"), ("degraded", "bool"))]
    out += [("/provenance/backend_ids", "str",
             lambda v: replace(rec, provenance=replace(prov, backend_ids={"segment": v}))),
            ("/provenance/backend_ids", "str",
             lambda v: replace(rec, provenance=replace(prov, backend_ids={v: "x"}))),
            ("/provenance/prompt_hashes", "str",
             lambda v: replace(rec, provenance=replace(prov, prompt_hashes=(v,))))]
    for sid, items in rec.assignments.items():
        for j, a in enumerate(items):
            def label(v, k, sid=sid, j=j, items=items, a=a):
                new = items[:j] + (replace(a, **{k: v}),) + items[j + 1:]
                return replace(rec, assignments={**rec.assignments, sid: new})
            out += [(f"/assignments/{sid}/{j}/{k}", kind, functools.partial(label, k=k))
                    for k, kind in (("text", "str"), ("confidence", "number"), ("source", "str"),
                                    ("concept_id", "str or None"), ("definition", "str or None"))]
    for i, seg in enumerate(rec.segments):
        def segment(v, i=i, **fields):
            segs = list(rec.segments)
            segs[i] = replace(segs[i], **{k: f(v) for k, f in fields.items()})
            return replace(rec, segments=tuple(segs))
        base = f"/segments/{i}"
        out += [(f"{base}/id", "int", functools.partial(segment, id=lambda v: v)),
                (f"{base}/area", "int", functools.partial(segment, area=lambda v: v)),
                (f"{base}/bbox", "int", functools.partial(
                    segment, bbox=lambda v, b=seg.bbox: replace(b, w=v))),
                (f"{base}/mask/counts", "int", functools.partial(
                    segment, mask=lambda v, m=seg.mask: replace(m, counts=m.counts + (v,)))),
                (f"{base}/contour/0", "point", functools.partial(
                    segment, contour=lambda v, c=seg.contour: (v,) + c[1:])),
                (f"{base}/contour/0", "int", functools.partial(
                    segment, contour=lambda v, c=seg.contour: ((c[0][0], v),) + c[1:]))]
    return out


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

    @pytest.mark.parametrize("key", ["01", " 1", "1 ", "+1", "\uff11", "1_0", "1.0", "x", ""])
    def test_an_assignment_key_reads_only_as_the_writer_writes_it(self, key):
        # int() reads the first six as 1 or 10 ("1_0"); the writer writes none of them
        rec, _ = simple_record()
        obj = record_to_obj(rec)
        obj["assignments"][key] = obj["assignments"]["1"]
        for assignments in ({key: obj["assignments"][key]}, obj["assignments"]):
            data = canonical_json_bytes({**obj, "assignments": assignments})
            with pytest.raises(SidecarFormatError) as err:
                read_sidecar(data)
            assert str(err.value) == \
                f"/assignments/{key}: segment id key must be an integer in canonical form"

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

    @pytest.mark.parametrize("change, path, message", [
        (lambda r: replace(r, width=True), "/width", "unexpected type bool"),
        (lambda r: replace(r, height=2.0), "/height", "unexpected type float"),
        (lambda r: replace(r, image_id=None), "/image_id", "unexpected type NoneType"),
        (lambda r: replace(r, source_path=7), "/source_path", "unexpected type int"),
        (lambda r: replace(r, image_caption=3), "/image_caption", "unexpected type int"),
        (lambda r: replace(r, assignments={1: (LabelAssignment("keel", True, "tagger"),)}),
         "/assignments/1/0/confidence", "unexpected type bool"),
        (lambda r: replace(r, provenance=replace(r.provenance, degraded=1)),
         "/provenance/degraded", "unexpected type int"),
        (lambda r: replace(r, provenance=replace(r.provenance, backend_ids={"segment": 7})),
         "/provenance/backend_ids", "must map strings to strings"),
        (lambda r: replace(r, provenance=replace(r.provenance, prompt_hashes=(7,))),
         "/provenance/prompt_hashes", "must be a list of strings"),
        (lambda r: _with_point(r, (0,)), "/segments/0/contour/1", "expected a list of 2 integers"),
        (lambda r: _with_point(r, (0, 0, 0)), "/segments/0/contour/1",
         "expected a list of 2 integers"),
        (lambda r: _with_point(r, 7), "/segments/0/contour/1", "expected a list of 2 integers"),
        (lambda r: _with_point(r, (True, 9)), "/segments/0/contour/1",
         "expected a list of 2 integers"),
    ], ids=["width-bool", "height-float", "image_id-none", "source_path-int", "caption-int",
            "confidence-bool", "degraded-int", "backend_id-int", "prompt_hash-int", "point-1",
            "point-3", "point-int", "point-bool"])
    def test_write_checks_every_value_by_the_reader(self, tmp_path, change, path, message):
        # the reader's checks run before the invariants: nothing unreadable is written
        rec = change(simple_record()[0])
        dest = tmp_path / "page.segments.json"
        with pytest.raises(SidecarValidationError) as err:
            write_sidecar(rec, dest)
        assert str(err.value) == f"{path}: {message}"
        assert not dest.exists()
        with pytest.raises(SidecarFormatError) as read_err:
            record_from_obj(record_to_obj(rec))
        assert str(read_err.value) == str(err.value)

    def test_of_two_bad_values_the_write_names_the_one_outside_the_segments(self, tmp_path):
        # the writer checks the segments last, the reader before the provenance
        rec = _with_point(simple_record()[0], (0,))
        rec = replace(rec, provenance=replace(rec.provenance, degraded=1))
        dest = tmp_path / "page.segments.json"
        with pytest.raises(SidecarValidationError) as err:
            write_sidecar(rec, dest)
        assert str(err.value) == "/provenance/degraded: unexpected type int"
        assert not dest.exists()
        with pytest.raises(SidecarFormatError) as read_err:
            record_from_obj(record_to_obj(rec))
        assert str(read_err.value) == "/segments/0/contour/1: expected a list of 2 integers"

    def test_a_list_point_is_a_type_error(self):
        # a producer bug, not a value the reader would reject
        with pytest.raises(TypeError, match="contour points must be"):
            record_to_bytes(_with_point(simple_record()[0], [0, 0]))

    def test_a_wrong_type_anywhere_is_refused_at_its_path_or_reads_back(self):
        rng = random.Random(26)
        refused = 0
        for _ in range(300):
            rec, _ = fuzz_record(rng)
            path, kind, change = rng.choice(_slots(rec))
            value = rng.choice([v for v in _WRONG if not _ACCEPTS[kind](v)])
            try:
                bad = change(value)
            except (TypeError, ValueError):  # a box that cannot be built
                continue
            try:
                data = record_to_bytes(bad)
            except SidecarValidationError as exc:
                assert exc.violations[0].path == path, (path, value)
                refused += 1
            else:
                read_sidecar(data)
        assert refused > 200

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

    @pytest.mark.parametrize("width,height", [(0, 2), (3, 0)])
    def test_an_empty_frame_is_named_at_width(self, width, height):
        rec, _ = simple_record()
        rec2 = replace(rec, width=width, height=height, segments=(), assignments={})
        assert [(v.path, v.message) for v in validate_record(rec2)] == [
            ("/width", "frame must be at least 1x1")]

    def test_a_mask_of_another_size_than_its_box(self):
        rec, _ = simple_record()
        seg = rec.segments[0]
        bad = replace(seg, mask=MaskRLE(2, 2, (0, 4)))
        rec2 = replace(rec, segments=(bad,))
        assert [(v.path, v.message) for v in validate_record(rec2)] == [
            ("/segments/0/mask", "mask dimensions differ from bbox")]

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


def _break_slice_edges(rng, rec, size):
    """`rec` with some of the contour points that start or end a lookup
    slice of `size` points moved far outside their box, some past int64."""
    segments, g = [], 0
    for seg in rec.segments:
        contour = list(seg.contour)
        for j in range(len(contour)):
            if (g + j) % size in (0, size - 1) and rng.random() < 0.3:
                contour[j] = rng.choice(((-7, -7), (2**70, 0), (0, -2**70), (10**6, 3)))
        g += len(contour)
        segments.append(replace(seg, contour=tuple(contour)))
    return replace(rec, segments=tuple(segments))


@pytest.mark.parametrize("size", [1, 2, 3, 10**9])
def test_sliced_contour_lookups_match_the_geometry_oracle(monkeypatch, size):
    # a slice boundary falls inside segments and between them; bad points on
    # either side of it, and a clamped coordinate in a later slice, are
    # reported in order, as by one lookup of all points
    monkeypatch.setattr(catalog, "_POINT_SLICE", size)
    rng = random.Random(size)
    on_edge = 0
    for _ in range(400):
        rec, _ = fuzz_record(rng)
        if rec.segments:
            segments = list(rec.segments)
            for _ in range(rng.randint(0, 2)):
                i = rng.randrange(len(segments))
                segments[i] = _mutate_segment(rng, segments[i], segments, rec)
            rec = _break_slice_edges(rng, replace(rec, segments=tuple(segments)), size)
        got = [(v.path, v.message) for v in validate_record(rec)]
        assert got == _oracle_violations(rec)
        on_edge += any(message == "contour pixel not in mask" for _, message in got)
    assert on_edge > 100


def _column_record(rows: int) -> ImageRecord:
    """A valid record of one segment, a column two pixels wide and `rows`
    high, whose every pixel is on its contour: 2 * rows points, two runs."""
    seg = Segment(id=1, bbox=BoundingBox(0, 0, 2, rows), mask=MaskRLE(2, rows, (0, 2 * rows)),
                  area=2 * rows, contour=tuple((x, y) for y in range(rows) for x in (0, 1)))
    return ImageRecord(image_id="0" * 64, source_path="column.pgm", width=2, height=rows,
                       segments=(seg,), assignments={},
                       provenance=Provenance(method="native", backend_ids={}, prompt_hashes=()))


def _transient(fn, *args) -> int:
    """The peak bytes traced while `fn(*args)` ran, above those live at its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_the_check_transient_does_not_grow_with_the_point_count():
    # the contour points are looked up a bounded slice at a time, so four
    # times the points of a one-segment record take no more memory to check
    small, large = _column_record(2**14), _column_record(2**16)
    assert validate_record(small) == validate_record(large) == []
    assert _transient(validate_record, large) <= _transient(validate_record, small) + 4096
    assert _transient(validate_record, large) <= 320 * catalog._POINT_SLICE


# values a mutated segment node takes: JSON's odd corners and wrong types
_NODE_VALUES = (None, True, 2**70, 1e400, float("nan"), "\ud800", [], {})


def _mutate_node(rng, doc) -> None:
    """One seeded change to one node of one segment of `doc`: a new value, a
    deleted key or an extra key."""
    i = rng.randrange(len(doc["segments"]))
    parent, key = rng.choice(list(json_nodes(doc["segments"][i], doc["segments"], i)))
    kind = rng.choice(("value", "delete", "extra"))
    if kind == "delete" and isinstance(parent, dict):
        del parent[key]
    elif kind == "extra" and isinstance(parent[key], dict):
        parent[key]["zz"] = 1
    else:
        parent[key] = rng.choice(_NODE_VALUES)


def _reference_from_obj(doc) -> ImageRecord:
    """record_from_obj as a reader that keeps its input: each segment built
    by _segment_from_obj from a deep copy, in order, then the rest. For
    documents whose faults are all in their segments."""
    segments = tuple(_segment_from_obj(copy.deepcopy(s), f"/segments/{i}")
                     for i, s in enumerate(doc["segments"]))
    return replace(record_from_obj({**doc, "segments": []}), segments=segments)


def _reference_read(data) -> ImageRecord:
    record = _reference_from_obj(parse_json(data, lambda m: SidecarFormatError("/", m)))
    violations = validate_record(record)
    if violations:
        raise SidecarValidationError(violations)
    return record


def _outcome(fn, arg):
    """What `fn(arg)` returns, or the type, path and message of what it raises."""
    try:
        return fn(arg)
    except SidecarFormatError as exc:
        return type(exc), exc.path, exc.message
    except SidecarValidationError as exc:
        return type(exc), exc.violations
    except Exception as exc:  # any other failure must match too
        return type(exc), str(exc)


def test_the_consuming_reader_reads_as_one_that_keeps_its_input():
    rng = random.Random(27)
    kinds = set()
    for _ in range(3000):
        rec, _ = fuzz_record(rng)
        doc = json.loads(record_to_bytes(rec))
        if doc["segments"]:
            _mutate_node(rng, doc)
        data = json.dumps(doc).encode("ascii")
        want = _outcome(_reference_read, data)
        assert _outcome(read_sidecar, data) == want
        assert _outcome(record_from_obj, copy.deepcopy(doc)) == \
            _outcome(_reference_from_obj, doc)
        kinds.add(want[0] if isinstance(want, tuple) else ImageRecord)
    assert kinds == {ImageRecord, SidecarFormatError, SidecarValidationError}


def test_the_reader_drops_each_segment_object_once_built():
    rec = fuzz_record(random.Random(3))[0]
    doc = json.loads(record_to_bytes(rec))
    assert len(doc["segments"]) > 1
    assert record_from_obj(doc) == rec
    assert doc["segments"] == [None] * len(rec.segments)


def test_the_reader_builds_in_about_no_memory_above_its_parsed_input():
    # 256 segments of 128 points each: one segment's parsed lists are freed
    # as soon as its tuples are built, so the record replaces its JSON
    obj = record_to_obj(simple_record()[0])
    obj["segments"] = [
        {"id": k + 1, "bbox": [0, 0, 1, 1], "area": 1, "mask": {"counts": [0, 1]},
         "contour": [[1000 + j, 2000 + k] for j in range(128)]} for k in range(256)]
    text = json.dumps(obj)
    tracemalloc.start()
    try:
        doc = json.loads(text)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        record = record_from_obj(doc)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    points = sum(len(s.contour) for s in record.segments)
    assert points == 2**15
    assert peak <= 10 * points


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

    @pytest.mark.parametrize("index,key,value,message", [
        (0, None, "Livro A", "treatises[0] must be an object"),
        (1, "title", "", "treatises[1].title must be a non-empty string"),
        (1, "title", None, "treatises[1].title must be a non-empty string"),
        (0, "year", 1580.0, "treatises[0].year must be an integer"),
        (0, "year", True, "treatises[0].year must be an integer"),
    ])
    def test_a_treatise_field_of_the_wrong_type_is_named(self, index, key, value, message):
        doc = copy.deepcopy(self.GOOD)
        if key is None:
            doc["treatises"][index] = value
        else:
            doc["treatises"][index][key] = value
        with pytest.raises(ManifestError) as err:
            load_manifest(json.dumps(doc))
        assert str(err.value) == message

    def test_no_year_range_everything_goes(self):
        doc = {"treatises": [{"title": "X", "language": "la", "year": 99,
                              "images": []}]}
        assert load_manifest(json.dumps(doc)).treatises[0].images == ()


def test_sidecar_path():
    assert sidecar_path("dir/page.pgm") == "dir/page.pgm.segments.json"


def test_image_id_is_sha256():
    assert image_id_for(b"abc") == hashlib.sha256(b"abc").hexdigest()
