"""Inverted index and ranked search over image records.

Each indexed record contributes one document per segment (its labels and
attached definitions) and one whole-image document (caption plus every
label and definition on the page). Queries are disjunctive: any expanded
term may match, which makes expansion a pure recall widener — the matched
set with expansion on always contains the set with it off.

Ranking is BM25 with k1=1.2, b=0.75 and idf = ln((N-n+0.5)/(n+0.5)+1);
ties break on doc_id ascending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import lexicon, parse_json
from .catalog import ImageRecord, atomic_write, canonical_json_bytes

K1 = 1.2
B = 0.75


@dataclass(frozen=True)
class Query:
    raw: tuple
    expanded: tuple  # normalized term strings, sorted

    def tokens(self) -> set:
        out: set[str] = set()
        for term in self.expanded:
            out.update(lexicon.tokenize(term))
        return out


@dataclass(frozen=True)
class SearchHit:
    doc_id: str
    score: float

    @property
    def image_id(self) -> str:
        return self.doc_id.split("#", 1)[0]

    @property
    def segment_id(self) -> int | None:
        if "#" not in self.doc_id:
            return None
        return int(self.doc_id.split("#", 1)[1])


class Index:
    """In-memory inverted index; single writer, snapshot persistence."""

    def __init__(self):
        self.docs: dict[str, int] = {}                 # doc_id -> token count
        self.postings: dict[str, dict[str, int]] = {}  # token -> doc_id -> tf
        self._by_image: dict[str, set] | None = None    # image id -> its doc ids, once removing

    def __eq__(self, other):
        return (isinstance(other, Index)
                and self.docs == other.docs and self.postings == other.postings)

    @property
    def doc_count(self) -> int:
        return len(self.docs)

    def _add_doc(self, doc_id: str, tokens: list) -> None:
        terms: dict[str, int] = {}
        for tok in tokens:
            terms[tok] = terms.get(tok, 0) + 1
        self.docs[doc_id] = len(tokens)
        for tok, tf in terms.items():
            self.postings.setdefault(tok, {})[doc_id] = tf
        if self._by_image is not None:
            self._by_image.setdefault(doc_id.split("#", 1)[0], set()).add(doc_id)

    def add_image(self, image_id: str, docs) -> None:
        """Replace the image's documents with `docs`, (doc_id, tokens) pairs
        as `record_docs` makes them."""
        # exact: every indexed image has its whole-image document
        if image_id in self.docs:
            self.remove_image(image_id)
        for doc_id, tokens in docs:
            self._add_doc(doc_id, tokens)

    def remove_image(self, image_id: str) -> None:
        """Drop the image's documents: those whose id is the image id or
        starts with it and `#`. The doc ids are grouped by image on the first
        removal, so a search, which removes nothing, never pays for it."""
        if self._by_image is None:
            self._by_image = {}
            for doc_id in self.docs:
                self._by_image.setdefault(doc_id.split("#", 1)[0], set()).add(doc_id)
        stale = self._by_image.pop(image_id, ())
        for doc_id in stale:
            del self.docs[doc_id]
        for tok, plist in list(self.postings.items()):
            for doc_id in stale:
                plist.pop(doc_id, None)
            if not plist:
                del self.postings[tok]


def _assignment_tokens(assignment) -> list:
    toks = lexicon.tokenize(assignment.text)
    if assignment.definition:
        toks.extend(lexicon.tokenize(assignment.definition))
    return toks


def record_docs(record: ImageRecord) -> list:
    """The record's documents as (doc_id, tokens): one per segment, then the
    whole image, whose tokens are the caption's and every segment's."""
    page_tokens: list[str] = []
    if record.image_caption:
        page_tokens.extend(lexicon.tokenize(record.image_caption))
    docs = []
    for seg in record.segments:
        seg_tokens: list[str] = []
        for a in record.assignments.get(seg.id, ()):
            seg_tokens.extend(_assignment_tokens(a))
        page_tokens.extend(seg_tokens)
        docs.append((f"{record.image_id}#{seg.id}", seg_tokens))
    docs.append((record.image_id, page_tokens))
    return docs


def index_record(index: Index, record: ImageRecord) -> Index:
    """Replace any prior postings for this image, then add one document per
    segment and one for the whole image. Indexing the same record twice is
    a no-op."""
    index.add_image(record.image_id, record_docs(record))
    return index


def expand_query(terms, glossary=None, ontology=None, hops: int = 0) -> Query:
    """Normalized input terms plus, with a glossary, every variant of each
    entry the terms hit; hops=1 additionally pulls in one-hop related
    entries and, with an ontology, the labels of related and ancestor
    concepts reachable from the hit entries."""
    if hops not in (0, 1):
        raise ValueError("hops must be 0 or 1")
    raw = tuple(terms)
    expanded: set[str] = set()
    for t in raw:
        n = lexicon.normalize_term(t)
        if n:
            expanded.add(n)
    hit_entries: set[str] = set()
    if glossary is not None:
        for t in expanded:
            hit_entries |= lexicon.lookup(glossary, t)
        expanded |= lexicon.expand_terms(glossary, raw, include_related=hops == 1)
    if hops == 1 and ontology is not None and glossary is not None:
        from . import ontology as onto

        concepts: set[str] = set()
        for eid in hit_entries:
            concepts.update(ontology.concepts_for_gloss(eid))
        labels: set[str] = set()
        for cid in concepts:
            for rid in onto.related(ontology, cid):
                labels.add(ontology.concepts[rid].label)
            for aid in onto.ancestors(ontology, cid):
                labels.add(ontology.concepts[aid].label)
        for lab in labels:
            n = lexicon.normalize_term(lab)
            if n:
                expanded.add(n)
    return Query(raw=raw, expanded=tuple(sorted(expanded)))


def search(index: Index, query: Query, k: int = 10, kind: str = "all") -> list:
    """Top-k BM25 hits over the OR of the query's tokens. `kind` restricts
    candidates to whole-image docs ("image") or segment docs ("segment")."""
    if kind not in ("all", "image", "segment"):
        raise ValueError(f"unknown kind {kind!r}")
    tokens = query.tokens()
    n_docs = index.doc_count
    if not tokens or n_docs == 0 or k <= 0:
        return []
    total_len = sum(index.docs.values())
    avgdl = (total_len / n_docs) if total_len else 1.0
    scores: dict[str, float] = {}
    for tok in sorted(tokens):
        plist = index.postings.get(tok)
        if not plist:
            continue
        n = len(plist)
        idf = math.log((n_docs - n + 0.5) / (n + 0.5) + 1.0)
        for doc_id, tf in plist.items():
            norm = tf + K1 * (1.0 - B + B * index.docs[doc_id] / avgdl)
            scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (K1 + 1.0) / norm
    if kind == "image":
        scores = {d: s for d, s in scores.items() if "#" not in d}
    elif kind == "segment":
        scores = {d: s for d, s in scores.items() if "#" in d}
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [SearchHit(doc_id=d, score=s) for d, s in ranked[:k]]


def matched_documents(index: Index, query: Query) -> set:
    """Every doc id containing at least one query token (rank-free)."""
    out: set[str] = set()
    for tok in query.tokens():
        out.update(index.postings.get(tok, ()))
    return out


def index_to_obj(index: Index) -> dict:
    return {
        "schema_version": 1,
        "doc_count": index.doc_count,
        "docs": dict(index.docs),
        "postings": {t: dict(p) for t, p in index.postings.items()},
    }


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _all_counts(values) -> bool:
    """True when every value is a non-negative int; a bool is not one."""
    return set(map(type, values)) <= {int} and min(values, default=0) >= 0


def index_from_obj(doc: dict) -> Index:
    if not isinstance(doc, dict) or not isinstance(doc.get("docs"), dict) \
            or not isinstance(doc.get("postings"), dict):
        raise ValueError("snapshot must carry docs and postings objects")
    docs = doc["docs"]
    if not _all_counts(docs.values()):
        bad = next(doc_id for doc_id, n in docs.items() if not _is_count(n))
        raise ValueError(f"length of document {bad!r} must be a non-negative integer")
    index = Index()
    index.docs = dict(docs)
    for tok, plist in doc["postings"].items():
        if not isinstance(plist, dict):
            raise ValueError(f"postings for {tok!r} must be an object")
        if not (plist.keys() <= docs.keys() and _all_counts(plist.values())):
            for doc_id, tf in plist.items():  # name the first bad entry
                if doc_id not in docs:
                    raise ValueError(f"posting for unknown document {doc_id!r}")
                if not _is_count(tf):
                    raise ValueError(f"tf of {doc_id!r} under {tok!r} must be a non-negative integer")
        index.postings[tok] = dict(plist)
    return index


def save_index(index: Index, path) -> None:
    atomic_write(path, canonical_json_bytes(index_to_obj(index)))


def load_index(path) -> Index:
    with open(path, "rb") as fh:
        return index_from_obj(parse_json(fh.read()))
