"""Output checks: sidecar round trips, a reference BM25 ranking, expected
eval reports, and the golden digests for the default seed."""

from __future__ import annotations

import json
import math
import os

from treatise import catalog, lexicon, retrieval

K1, B = retrieval.K1, retrieval.B


def sidecar_view(path: str, image_bytes: bytes) -> tuple[list[str], dict | None]:
    """(problems, normalized record) for one sidecar. The record must pass
    validate_record against its image bytes and re-serialize to the same
    bytes. The view blanks what legitimately differs between runs: the
    provenance timestamp, backend URLs (ephemeral ports) and the directory
    part of source_path."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        record = catalog.read_sidecar(data)
    except ValueError as exc:
        return [f"{path}: unreadable: {exc}"], None
    problems = [f"{path}: {v}" for v in catalog.validate_record(record, image_bytes)]
    if catalog.record_to_bytes(record) != data:
        problems.append(f"{path}: does not read back to an equal record")
    obj = json.loads(data)
    obj["source_path"] = os.path.basename(obj["source_path"])
    obj["provenance"]["timestamp"] = ""
    obj["provenance"]["backend_ids"] = {}
    return problems, obj


class ReferenceIndex:
    """Brute-force BM25 over the generated records, written from the
    retrieval module's documented contract rather than its code."""

    def __init__(self, records):
        self.docs: dict[str, int] = {}
        self.tf: dict[str, dict[str, int]] = {}
        for r in records:
            page = lexicon.tokenize(r.image_caption) if r.image_caption else []
            for seg in r.segments:
                toks = []
                for a in r.assignments.get(seg.id, ()):
                    toks += lexicon.tokenize(a.text)
                    if a.definition:
                        toks += lexicon.tokenize(a.definition)
                page += toks
                self._add(f"{r.image_id}#{seg.id}", toks)
            self._add(r.image_id, page)

    def _add(self, doc_id: str, toks: list) -> None:
        self.docs[doc_id] = len(toks)
        for t in toks:
            self.tf.setdefault(t, {})
            self.tf[t][doc_id] = self.tf[t].get(doc_id, 0) + 1

    def snapshot_problems(self, snapshot: dict) -> list[str]:
        out = []
        if snapshot.get("docs") != self.docs:
            out.append("index snapshot documents differ from the reference")
        if snapshot.get("postings") != self.tf:
            out.append("index snapshot postings differ from the reference")
        return out

    def search(self, tokens, k: int, kind: str) -> list[tuple[str, float]]:
        n_docs = len(self.docs)
        avgdl = sum(self.docs.values()) / n_docs
        scores: dict[str, float] = {}
        for tok in sorted(tokens):
            plist = self.tf.get(tok, {})
            idf = math.log((n_docs - len(plist) + 0.5) / (len(plist) + 0.5) + 1.0)
            for doc, tf in plist.items():
                norm = tf + K1 * (1.0 - B + B * self.docs[doc] / avgdl)
                scores[doc] = scores.get(doc, 0.0) + idf * tf * (K1 + 1.0) / norm
        if kind != "all":
            scores = {d: s for d, s in scores.items() if ("#" in d) == (kind == "segment")}
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def parse_hits(out: str) -> list[tuple[str, float]]:
    """`search` prints rank, doc id and score, tab-separated, one hit a line."""
    hits = []
    for line in out.splitlines():
        _, doc, score = line.split("\t")
        hits.append((doc, float(score)))
    return hits


def same_ranking(got, want) -> bool:
    return (len(got) == len(want)
            and all(g[0] == w[0] and abs(g[1] - w[1]) <= 1.5e-6 for g, w in zip(got, want)))


def eval_problems(report: dict, pairs: list[dict]) -> list[str]:
    """Compare an `eval --out` report with the outcome the generator built
    into each perturbed truth record."""
    out = []
    images = report.get("images", [])
    if len(images) != len(pairs):
        return [f"eval reported {len(images)} images for {len(pairs)} pairs"]
    for got, want in zip(images, pairs):
        if (got["tp"], got["fp"], got["fn"]) != (want["tp"], want["fp"], want["fn"]):
            out.append(f"eval {want['truth']}: tp/fp/fn {got['tp']}/{got['fp']}/{got['fn']}"
                       f" != {want['tp']}/{want['fp']}/{want['fn']}")
    tp, fp, fn = (sum(p[k] for p in pairs) for k in ("tp", "fp", "fn"))
    s_iou = sum(p["sum_iou"] for p in pairs)
    s_score = sum(p["sum_score"] for p in pairs)
    agg = report.get("aggregate", {})
    want = {"tp": tp, "fp": fp, "fn": fn, "mean_iou": s_iou / tp,
            "mean_label_score": s_score / tp,
            "soft_f1": 2 * s_score / (2 * s_score + fp + fn)}
    for key, value in want.items():
        if not abs(agg.get(key, math.nan) - value) <= 1e-9:  # a missing key fails too
            out.append(f"eval aggregate {key} {agg.get(key)} != {value}")
    return out


def rounded(obj):
    """Floats rounded to 1e-9, for digests that must not hinge on the last
    bits of a float sum."""
    if isinstance(obj, float):
        return round(obj, 9)
    if isinstance(obj, dict):
        return {k: rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [rounded(v) for v in obj]
    return obj
