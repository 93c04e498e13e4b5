"""Evaluation tests: detections from records, truth loading, greedy box
matching against oracles, knowledge-aware label scoring, per-image reports,
aggregation, and the text table."""

import random

import pytest

from oracles import box_iou_oracle, exhaustive_match_oracle, greedy_match_oracle
from treatise.catalog import (
    ImageRecord,
    LabelAssignment,
    Provenance,
    box_iou,
    record_to_bytes,
    utc_timestamp,
)
from treatise.evaluation import (
    Detection,
    GroundTruthRecord,
    TruthItem,
    aggregate,
    evaluate,
    format_report_table,
    label_score,
    load_truth,
    match_detections,
    record_detections,
    report_to_obj,
    truth_from_record,
)
from treatise.raster import BoundingBox, MaskRLE, Segment


def rec(image_id, segs, source="tagger", width=32, height=32):
    """segs: list of (bbox 4-tuple, [(text, confidence)]) in id order.
    Builds a record whose segment boxes carry the labels."""
    segments = []
    assignments = {}
    for i, (box, labels) in enumerate(segs, start=1):
        x, y, w, h = box
        segments.append(Segment(
            id=i, bbox=BoundingBox(x, y, w, h),
            mask=MaskRLE(width=w, height=h, counts=(0, w * h)),
            area=w * h, contour=((x, y),),
        ))
        if labels:
            assignments[i] = tuple(
                LabelAssignment(text=t, confidence=c, source=source)
                for t, c in labels)
    return ImageRecord(
        image_id=image_id, source_path="", width=width, height=height,
        segments=tuple(segments), assignments=assignments,
        provenance=Provenance(method="native", timestamp=utc_timestamp()),
    )


def truth(items, image_id="img"):
    """items: list of (bbox 4-tuple, text)."""
    return GroundTruthRecord(
        image_id=image_id, width=32, height=32,
        items=tuple(TruthItem(bbox=BoundingBox(*b), text=t) for b, t in items))


# ------------------------------------------------------------ detections

def test_detections_follow_segment_then_assignment_order():
    record = rec("img", [
        ((0, 0, 2, 2), [("keel", 0.9), ("scarf", 0.1)]),
        ((4, 4, 2, 2), [("heel", 0.5)]),
    ])
    dets = record_detections(record)
    assert [(d.text, d.confidence) for d in dets] == [
        ("keel", 0.9), ("scarf", 0.1), ("heel", 0.5)]
    assert dets[0].bbox == BoundingBox(0, 0, 2, 2)
    assert dets[2].bbox == BoundingBox(4, 4, 2, 2)


def test_detections_empty_without_labels():
    assert record_detections(rec("img", [((0, 0, 2, 2), [])])) == []


def test_truth_requires_human_labels():
    human = rec("img", [((0, 0, 2, 2), [("keel", 1.0)])], source="human")
    got = truth_from_record(human)
    assert got.image_id == "img"
    assert [(t.text, t.bbox) for t in got.items] == [
        ("keel", BoundingBox(0, 0, 2, 2))]
    machine = rec("img", [((0, 0, 2, 2), [("keel", 1.0)])], source="tagger")
    with pytest.raises(ValueError, match="tagger"):
        truth_from_record(machine)


def test_truth_loads_from_sidecar_bytes():
    human = rec("ab" * 32, [((0, 0, 2, 2), [("keel", 1.0)])],
                source="human")
    got = load_truth(record_to_bytes(human))
    assert got.width == 32 and got.height == 32
    assert len(got.items) == 1


# ------------------------------------------------------------ matching

def _dets(items):
    return [Detection(bbox=BoundingBox(*b), text=t, confidence=c)
            for b, t, c in items]


def test_match_perfect_overlap():
    dets = _dets([((0, 0, 2, 2), "a", 1.0), ((4, 4, 2, 2), "b", 1.0)])
    t = truth([((0, 0, 2, 2), "a"), ((4, 4, 2, 2), "b")])
    m = match_detections(dets, t.items)
    assert m.pairs == ((0, 0, 1.0), (1, 1, 1.0))
    assert m.unmatched_pred == () and m.unmatched_truth == ()


def test_match_confidence_order_wins_contested_truth():
    dets = _dets([((0, 0, 2, 2), "low", 0.4), ((0, 0, 2, 2), "high", 0.9)])
    t = truth([((0, 0, 2, 2), "x")])
    m = match_detections(dets, t.items)
    assert [(i, j) for i, j, _ in m.pairs] == [(1, 0)]
    assert m.unmatched_pred == (0,)


def test_match_confidence_ties_keep_document_order():
    dets = _dets([((0, 0, 2, 2), "first", 0.5), ((0, 0, 2, 2), "second", 0.5)])
    t = truth([((0, 0, 2, 2), "x")])
    m = match_detections(dets, t.items)
    assert [(i, j) for i, j, _ in m.pairs] == [(0, 0)]


def test_match_picks_max_iou_then_lower_index():
    # truth 1 overlaps more than truth 0
    dets = _dets([((0, 0, 2, 2), "a", 1.0)])
    t = truth([((1, 1, 2, 2), "small"), ((0, 0, 2, 2), "exact")])
    m = match_detections(dets, t.items, iou_threshold=0.1)
    assert [(i, j) for i, j, _ in m.pairs] == [(0, 1)]
    # identical truth boxes: lower index taken
    t2 = truth([((0, 0, 2, 2), "one"), ((0, 0, 2, 2), "two")])
    m2 = match_detections(dets, t2.items)
    assert [(i, j) for i, j, _ in m2.pairs] == [(0, 0)]


def test_match_threshold_is_inclusive():
    # IoU((0,0,2,1), (0,0,1,1)) = 1/2 exactly
    dets = _dets([((0, 0, 2, 1), "a", 1.0)])
    at = match_detections(dets, truth([((0, 0, 1, 1), "x")]).items, 0.5)
    assert len(at.pairs) == 1
    above = match_detections(dets, truth([((0, 0, 1, 1), "x")]).items, 0.51)
    assert above.pairs == ()
    assert above.unmatched_pred == (0,)
    assert above.unmatched_truth == (0,)


def test_match_agrees_with_greedy_oracle():
    rng = random.Random(7)
    for _ in range(200):
        def rand_box():
            x, y = rng.randint(0, 12), rng.randint(0, 12)
            return (x, y, rng.randint(1, 4), rng.randint(1, 4))
        preds = [(rand_box(), rng.choice([0.25, 0.5, 0.75, 1.0]))
                 for _ in range(rng.randint(0, 5))]
        truths = [rand_box() for _ in range(rng.randint(0, 5))]
        threshold = rng.choice([0.1, 0.3, 0.5, 0.75])
        dets = _dets([(b, "t", c) for b, c in preds])
        t = truth([(b, "t") for b in truths])
        got = match_detections(dets, t.items, threshold)
        want = greedy_match_oracle(
            preds, [BoundingBox(*b) for b in truths], threshold,
            lambda a, b: box_iou(BoundingBox(*a) if isinstance(a, tuple) else a,
                                 b))
        assert [(i, j) for i, j, _ in got.pairs] == want
        matched_preds = {i for i, _, _ in got.pairs}
        assert set(got.unmatched_pred) == set(range(len(preds))) - matched_preds


def test_greedy_never_beats_exhaustive_matching():
    rng = random.Random(11)
    iou = lambda a, b: box_iou_oracle(a, b)
    for _ in range(60):
        def rand_box():
            x, y = rng.randint(0, 6), rng.randint(0, 6)
            return (x, y, rng.randint(1, 3), rng.randint(1, 3))
        preds = [(rand_box(), rng.random()) for _ in range(rng.randint(0, 3))]
        truths = [rand_box() for _ in range(rng.randint(0, 3))]
        dets = _dets([(b, "t", c) for b, c in preds])
        got = match_detections(dets, truth([(b, "t") for b in truths]).items, 0.3)
        best_count, _ = exhaustive_match_oracle(preds, truths, 0.3, iou)
        assert len(got.pairs) <= best_count


# ------------------------------------------------------------ label score

def test_label_score_equal_text(parts_glossary, ship_ontology):
    assert label_score("Keels", "keel", parts_glossary, ship_ontology) == 1.0


def test_label_score_same_concept_different_surface(parts_glossary, ship_ontology):
    assert label_score("quilha", "keel", parts_glossary, ship_ontology) == 1.0


def test_label_score_ancestor(frames_glossary, ship_ontology):
    got = label_score("floor timber", "frame", frames_glossary, ship_ontology)
    assert got == 0.5
    assert label_score("frame", "floor timber", frames_glossary, ship_ontology) == 0.5


def test_label_score_related(frames_glossary, ship_ontology):
    got = label_score("rider frame", "frame", frames_glossary, ship_ontology)
    assert got == 0.25
    assert label_score("frame", "rider frame", frames_glossary, ship_ontology) == 0.25


def test_label_score_unrelated_and_unknown(parts_glossary, ship_ontology):
    assert label_score("keel", "scarf", parts_glossary, ship_ontology) == 0.0
    assert label_score("zzz", "keel", parts_glossary, ship_ontology) == 0.0


def test_label_score_is_symmetric(parts_glossary, frames_glossary, ship_ontology):
    parts_terms = ["keel", "quilha", "sternpost", "heel", "scarf",
                   "stern knee", "zzz"]
    for a in parts_terms:
        for b in parts_terms:
            assert (label_score(a, b, parts_glossary, ship_ontology)
                    == label_score(b, a, parts_glossary, ship_ontology))
    frame_terms = ["frame", "rider frame", "floor timber", "caverna", "zzz"]
    for a in frame_terms:
        for b in frame_terms:
            assert (label_score(a, b, frames_glossary, ship_ontology)
                    == label_score(b, a, frames_glossary, ship_ontology))


# ------------------------------------------------------------ evaluate

def test_evaluate_rejects_mismatched_ids(parts_glossary, ship_ontology):
    pred = rec("one", [((0, 0, 2, 2), [("keel", 1.0)])])
    with pytest.raises(ValueError):
        evaluate(pred, truth([], image_id="two"), parts_glossary, ship_ontology)


def test_evaluate_record_against_itself_is_perfect(parts_glossary, ship_ontology):
    boxes = [((0, 0, 4, 4), [("keel", 0.9)]), ((8, 8, 4, 4), [("scarf", 0.8)])]
    pred = rec("img", boxes)
    t = truth_from_record(rec("img", boxes, source="human"))
    r = evaluate(pred, t, parts_glossary, ship_ontology)
    assert (r.tp, r.fp, r.fn) == (2, 0, 0)
    assert r.precision == r.recall == r.f1 == 1.0
    assert r.mean_iou == 1.0
    assert r.mean_label_score == 1.0
    assert r.soft_f1 == 1.0


def test_evaluate_right_boxes_wrong_words(parts_glossary, ship_ontology):
    pred = rec("img", [((0, 0, 4, 4), [("scarf", 1.0)])])
    t = truth([((0, 0, 4, 4), "keel")], image_id="img")
    r = evaluate(pred, t, parts_glossary, ship_ontology)
    assert r.f1 == 1.0
    assert r.mean_label_score == 0.0
    assert r.soft_f1 == 0.0  # localization alone earns nothing here


def test_evaluate_partial_label_credit(frames_glossary, ship_ontology):
    pred = rec("img", [((0, 0, 4, 4), [("floor timber", 1.0)])])
    t = truth([((0, 0, 4, 4), "frame")], image_id="img")
    r = evaluate(pred, t, frames_glossary, ship_ontology)
    assert r.f1 == 1.0
    assert r.mean_label_score == 0.5
    # no fp/fn, some credit: the soft score saturates
    assert r.soft_f1 == 1.0


def test_evaluate_soft_f1_penalizes_misses(frames_glossary, ship_ontology):
    pred = rec("img", [((0, 0, 4, 4), [("floor timber", 1.0)]),
                       ((20, 20, 4, 4), [("frame", 0.5)])])
    t = truth([((0, 0, 4, 4), "frame"), ((10, 10, 4, 4), "frame")],
              image_id="img")
    r = evaluate(pred, t, frames_glossary, ship_ontology)
    assert (r.tp, r.fp, r.fn) == (1, 1, 1)
    assert r.soft_f1 == pytest.approx(2 * 0.5 / (2 * 0.5 + 1 + 1))


def test_evaluate_wrong_boxes(parts_glossary, ship_ontology):
    pred = rec("img", [((0, 0, 2, 2), [("keel", 1.0)])])
    t = truth([((10, 10, 2, 2), "keel")], image_id="img")
    r = evaluate(pred, t, parts_glossary, ship_ontology)
    assert (r.tp, r.fp, r.fn) == (0, 1, 1)
    assert r.f1 == 0.0
    assert r.mean_iou == 0.0
    assert r.soft_f1 == 0.0


def test_evaluate_threshold_parameter(parts_glossary, ship_ontology):
    # IoU((0,0,2,2),(1,1,2,2)) = 1/7
    pred = rec("img", [((0, 0, 2, 2), [("keel", 1.0)])])
    t = truth([((1, 1, 2, 2), "keel")], image_id="img")
    loose = evaluate(pred, t, parts_glossary, ship_ontology, iou_threshold=0.1)
    tight = evaluate(pred, t, parts_glossary, ship_ontology, iou_threshold=0.5)
    assert loose.tp == 1 and loose.mean_iou == pytest.approx(1 / 7)
    assert tight.tp == 0


def test_evaluate_invariant_to_confidence_scaling(parts_glossary, ship_ontology):
    boxes = [((0, 0, 4, 4), [("keel", 0.9)]), ((8, 8, 4, 4), [("scarf", 0.3)])]
    t = truth([((0, 0, 4, 4), "keel"), ((8, 8, 4, 4), "heel")], image_id="img")
    a = evaluate(rec("img", boxes), t, parts_glossary, ship_ontology)
    scaled = [(b, [(txt, c / 2) for txt, c in labels]) for b, labels in boxes]
    b = evaluate(rec("img", scaled), t, parts_glossary, ship_ontology)
    assert a == b


# ------------------------------------------------------------ aggregation

def _two_reports(parts_glossary, ship_ontology):
    p1 = rec("one", [((0, 0, 4, 4), [("keel", 1.0)])])
    t1 = truth([((0, 0, 4, 4), "keel")], image_id="one")
    p2 = rec("two", [((0, 0, 4, 4), [("keel", 1.0)]),
                     ((20, 20, 4, 4), [("keel", 1.0)])])
    t2 = truth([((0, 0, 4, 4), "scarf")], image_id="two")
    return (evaluate(p1, t1, parts_glossary, ship_ontology),
            evaluate(p2, t2, parts_glossary, ship_ontology))


def test_aggregate_micro_pools_counts(parts_glossary, ship_ontology):
    r1, r2 = _two_reports(parts_glossary, ship_ontology)
    micro = aggregate([r1, r2])
    assert micro.image_id is None
    assert (micro.tp, micro.fp, micro.fn) == (2, 1, 0)
    assert micro.precision == pytest.approx(2 / 3)
    assert micro.recall == 1.0
    assert micro.f1 == pytest.approx(4 / 5)
    assert micro.sum_label_score == pytest.approx(
        r1.sum_label_score + r2.sum_label_score)
    assert micro.soft_f1 == pytest.approx(
        2 * micro.sum_label_score / (2 * micro.sum_label_score + 1 + 0))


def test_aggregate_macro_averages_ratios(parts_glossary, ship_ontology):
    r1, r2 = _two_reports(parts_glossary, ship_ontology)
    macro = aggregate([r1, r2], macro=True)
    assert (macro.tp, macro.fp, macro.fn) == (2, 1, 0)
    assert macro.precision == pytest.approx((r1.precision + r2.precision) / 2)
    assert macro.f1 == pytest.approx((r1.f1 + r2.f1) / 2)
    assert macro.soft_f1 == pytest.approx((r1.soft_f1 + r2.soft_f1) / 2)


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate([])


# ------------------------------------------------------------ reports

def test_report_serialization(parts_glossary, ship_ontology):
    r1, _ = _two_reports(parts_glossary, ship_ontology)
    obj = report_to_obj(r1)
    assert obj["image_id"] == "one"
    assert obj["tp"] == 1 and obj["f1"] == 1.0


def test_report_table_shape(parts_glossary, ship_ontology):
    r1, r2 = _two_reports(parts_glossary, ship_ontology)
    table = format_report_table([r1, r2, aggregate([r1, r2])])
    lines = table.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("image")
    assert lines[1].startswith("one")
    assert lines[3].startswith("ALL")
    assert "1.000" in lines[1]
