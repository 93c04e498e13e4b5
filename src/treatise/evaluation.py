"""Scoring pipeline output against human-curated ground truth.

Detections are matched to truth boxes greedily in confidence order at an
IoU threshold (the usual detection-benchmark convention), then each
matched pair contributes a knowledge-aware label score: 1 for the same
term or concept, C_ANCESTOR for an ancestor concept, the smaller C_RELATED
for a merely related concept, 0 otherwise. soft-F1 is F1 with the
true-positive count replaced by the sum of those scores, so it separates
"found the right box" from "called it the right thing".
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lexicon
from . import ontology as onto
from .catalog import ImageRecord, box_iou, read_sidecar
from .raster import BoundingBox

DEFAULT_IOU_THRESHOLD = 0.5
C_ANCESTOR = 0.5
C_RELATED = 0.25


@dataclass(frozen=True)
class Detection:
    bbox: BoundingBox
    text: str
    confidence: float
    concept_id: str | None = None


@dataclass(frozen=True)
class TruthItem:
    bbox: BoundingBox
    text: str
    concept_id: str | None = None


@dataclass(frozen=True)
class GroundTruthRecord:
    image_id: str
    width: int
    height: int
    items: tuple


@dataclass(frozen=True)
class Matching:
    pairs: tuple            # (pred index, truth index, iou)
    unmatched_pred: tuple
    unmatched_truth: tuple


@dataclass(frozen=True)
class EvalReport:
    image_id: str | None
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    mean_iou: float
    mean_label_score: float
    soft_f1: float
    sum_iou: float
    sum_label_score: float


def record_detections(record: ImageRecord) -> list:
    """One detection per (segment, assignment) pair, in segment id then
    assignment order; the segment's box stands in for the detection box."""
    out = []
    for seg in record.segments:
        for a in record.assignments.get(seg.id, ()):
            out.append(Detection(bbox=seg.bbox, text=a.text,
                                 confidence=a.confidence, concept_id=a.concept_id))
    return out


def truth_from_record(record: ImageRecord) -> GroundTruthRecord:
    """Curated truth uses the sidecar schema with every label from a human;
    anything else is rejected."""
    items = []
    for seg in record.segments:
        for a in record.assignments.get(seg.id, ()):
            if a.source != "human":
                raise ValueError(
                    f"truth label {a.text!r} has source {a.source!r}, expected 'human'")
            items.append(TruthItem(bbox=seg.bbox, text=a.text, concept_id=a.concept_id))
    return GroundTruthRecord(image_id=record.image_id, width=record.width,
                             height=record.height, items=tuple(items))


def load_truth(data: bytes | str) -> GroundTruthRecord:
    return truth_from_record(read_sidecar(data))


def match_detections(predicted, truth, iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> Matching:
    """Greedy one-to-one matching: predictions in confidence-descending
    order (stable on ties), each taking the unmatched truth box of maximal
    IoU at or above the threshold, lower truth index on ties."""
    order = sorted(range(len(predicted)), key=lambda i: -predicted[i].confidence)
    taken = [False] * len(truth)
    pairs = []
    unmatched_pred = []
    for i in order:
        best_j = None
        best_iou = 0.0
        for j, t in enumerate(truth):
            if taken[j]:
                continue
            iou = box_iou(predicted[i].bbox, t.bbox)
            if iou >= iou_threshold and iou > best_iou:
                best_j, best_iou = j, iou
        if best_j is None:
            unmatched_pred.append(i)
        else:
            taken[best_j] = True
            pairs.append((i, best_j, best_iou))
    unmatched_truth = [j for j, t in enumerate(taken) if not t]
    return Matching(pairs=tuple(pairs), unmatched_pred=tuple(sorted(unmatched_pred)),
                    unmatched_truth=tuple(unmatched_truth))


def _concepts_for_text(text: str, glossary, ontology) -> frozenset:
    out: set[str] = set()
    for eid in lexicon.lookup(glossary, text):
        out.update(ontology.concepts_for_gloss(eid))
    return frozenset(out)


def label_score(pred_text: str, truth_text: str, glossary, ontology) -> float:
    """Symmetric similarity of two label texts: 1 for equal normalized text
    or a shared concept, C_ANCESTOR when one concept subsumes the other,
    C_RELATED for a one-hop related pair, else 0."""
    if lexicon.normalize_term(pred_text) == lexicon.normalize_term(truth_text):
        return 1.0
    a = _concepts_for_text(pred_text, glossary, ontology)
    b = _concepts_for_text(truth_text, glossary, ontology)
    if not a or not b:
        return 0.0
    if a & b:
        return 1.0
    for ca in a:
        anc = set(onto.ancestors(ontology, ca))
        if anc & b:
            return C_ANCESTOR
    for cb in b:
        anc = set(onto.ancestors(ontology, cb))
        if anc & a:
            return C_ANCESTOR
    for ca in a:
        if onto.related(ontology, ca) & b:
            return C_RELATED
    return 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _report(image_id, tp, fp, fn, sum_iou, sum_score) -> EvalReport:
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    return EvalReport(
        image_id=image_id, tp=tp, fp=fp, fn=fn,
        precision=precision, recall=recall,
        f1=_ratio(2 * tp, 2 * tp + fp + fn),
        mean_iou=_ratio(sum_iou, tp),
        mean_label_score=_ratio(sum_score, tp),
        soft_f1=_ratio(2 * sum_score, 2 * sum_score + fp + fn),
        sum_iou=sum_iou, sum_label_score=sum_score,
    )


def evaluate(predicted: ImageRecord, truth: GroundTruthRecord, glossary, ontology,
             iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> EvalReport:
    if predicted.image_id != truth.image_id:
        raise ValueError(
            f"record {predicted.image_id} does not match truth {truth.image_id}")
    detections = record_detections(predicted)
    matching = match_detections(detections, truth.items, iou_threshold)
    tp = len(matching.pairs)
    fp = len(matching.unmatched_pred)
    fn = len(matching.unmatched_truth)
    sum_iou = sum(iou for _, _, iou in matching.pairs)
    sum_score = sum(
        label_score(detections[i].text, truth.items[j].text, glossary, ontology)
        for i, j, _ in matching.pairs
    )
    return _report(predicted.image_id, tp, fp, fn, sum_iou, sum_score)


def aggregate(reports, macro: bool = False) -> EvalReport:
    """Micro-average by default: pool raw counts and match-level sums, then
    recompute every ratio. With macro=True the ratio fields are instead
    arithmetic means of the per-image ratios."""
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to aggregate")
    tp = sum(r.tp for r in reports)
    fp = sum(r.fp for r in reports)
    fn = sum(r.fn for r in reports)
    sum_iou = sum(r.sum_iou for r in reports)
    sum_score = sum(r.sum_label_score for r in reports)
    if not macro:
        return _report(None, tp, fp, fn, sum_iou, sum_score)
    n = len(reports)
    return EvalReport(
        image_id=None, tp=tp, fp=fp, fn=fn,
        precision=sum(r.precision for r in reports) / n,
        recall=sum(r.recall for r in reports) / n,
        f1=sum(r.f1 for r in reports) / n,
        mean_iou=sum(r.mean_iou for r in reports) / n,
        mean_label_score=sum(r.mean_label_score for r in reports) / n,
        soft_f1=sum(r.soft_f1 for r in reports) / n,
        sum_iou=sum_iou, sum_label_score=sum_score,
    )


def report_to_obj(report: EvalReport) -> dict:
    return {
        "image_id": report.image_id,
        "tp": report.tp, "fp": report.fp, "fn": report.fn,
        "precision": report.precision, "recall": report.recall, "f1": report.f1,
        "mean_iou": report.mean_iou, "mean_label_score": report.mean_label_score,
        "soft_f1": report.soft_f1,
    }


_COLUMNS = ("image", "tp", "fp", "fn", "prec", "rec", "f1", "iou", "label", "soft_f1")


def format_report_table(reports) -> str:
    """Aligned plain-text table, one row per report."""
    rows = [_COLUMNS]
    for r in reports:
        rows.append((
            (r.image_id or "ALL")[:16],
            str(r.tp), str(r.fp), str(r.fn),
            f"{r.precision:.3f}", f"{r.recall:.3f}", f"{r.f1:.3f}",
            f"{r.mean_iou:.3f}", f"{r.mean_label_score:.3f}", f"{r.soft_f1:.3f}",
        ))
    widths = [max(len(row[c]) for row in rows) for c in range(len(_COLUMNS))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
    return "\n".join(lines)
