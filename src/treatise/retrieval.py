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

import hashlib
import math
import os
import stat
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import atomic_write, canonical_json_bytes, lexicon, parse_json
from . import ontology as onto

if TYPE_CHECKING:
    from .catalog import ImageRecord

K1 = 1.2
B = 0.75


@dataclass(frozen=True)
class Query:
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
    return Query(expanded=tuple(sorted(expanded)))


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


# counts at or past 2**53 are not exact floats, and far beyond it the BM25
# float arithmetic overflows
_COUNT_LIMIT = 2**53


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < _COUNT_LIMIT


def _all_counts(values) -> bool:
    """True when every value is an int in [0, 2**53); a bool is not one."""
    return set(map(type, values)) <= {int} and min(values, default=0) >= 0 \
        and max(values, default=0) < _COUNT_LIMIT


def index_from_obj(doc: dict) -> Index:
    """The index a snapshot object describes. Once checked, the object's
    `docs` and `postings` dicts become the index's own, shared rather than
    copied."""
    if not isinstance(doc, dict) or not isinstance(doc.get("docs"), dict) \
            or not isinstance(doc.get("postings"), dict):
        raise ValueError("snapshot must carry docs and postings objects")
    docs = doc["docs"]
    if not _all_counts(docs.values()):
        bad = next(doc_id for doc_id, n in docs.items() if not _is_count(n))
        raise ValueError(f"length of document {bad!r} "
                         "must be a non-negative integer below 2**53")
    if "doc_count" in doc and not (_is_count(doc["doc_count"])
                                   and doc["doc_count"] == len(docs)):
        raise ValueError(f"doc_count {doc['doc_count']!r} is not the number "
                         f"of documents, {len(docs)}")
    postings = doc["postings"]
    for tok, plist in postings.items():
        if not isinstance(plist, dict):
            raise ValueError(f"postings for {tok!r} must be an object")
        if not (plist.keys() <= docs.keys() and _all_counts(plist.values())):
            for doc_id, tf in plist.items():  # name the first bad entry
                if doc_id not in docs:
                    raise ValueError(f"posting for unknown document {doc_id!r}")
                if not _is_count(tf):
                    raise ValueError(f"tf of {doc_id!r} under {tok!r} "
                                     "must be a non-negative integer below 2**53")
    index = Index()
    index.docs, index.postings = docs, postings
    return index


_DOCS = object()  # the doc table's place among a snapshot's parts


def _snapshot_parts(index: Index):
    """The snapshot's canonical JSON in order, as (bytes, part) pairs: part is
    _DOCS for the doc table, a token for its posting list, and None for the
    bytes between them. Joined, the bytes are `canonical_json_bytes` of
    {"schema_version": 1, "doc_count": ..., "docs": ..., "postings": ...}."""
    yield b'{"doc_count":%d,"docs":' % index.doc_count, None
    yield canonical_json_bytes(index.docs), _DOCS
    yield b',"postings":{', None
    for i, tok in enumerate(sorted(index.postings)):
        yield (b"," if i else b"") + canonical_json_bytes(tok) + b":", None
        yield canonical_json_bytes(index.postings[tok]), tok
    yield b'},"schema_version":1}', None


def _toc_path(path) -> str:
    return os.fspath(path) + ".toc"


def save_index(index: Index, path) -> None:
    """Write the snapshot, then its table of contents to `<path>.toc`: the
    byte span of the doc table and of each token's posting list, and the
    SHA-256 of the snapshot's bytes, a NUL byte and those spans. Each file is
    written atomically, the snapshot in chunks hashed as they go; a crash
    between the two leaves a table that no longer binds, which `load_index`
    ignores."""
    digest = hashlib.sha256()
    spans: dict = {}

    def chunks():
        offset = 0
        for chunk, part in _snapshot_parts(index):
            digest.update(chunk)
            if part is not None:
                spans[part] = [offset, offset + len(chunk)]
            offset += len(chunk)
            yield chunk

    atomic_write(path, chunks())
    table = {"docs": spans.pop(_DOCS), "postings": spans}
    digest.update(b"\0" + canonical_json_bytes(table))
    atomic_write(_toc_path(path), canonical_json_bytes({**table, "sha256": digest.hexdigest()}))


def _read_toc(path, size: int):
    """The JSON of the table of contents beside the snapshot at `path`, of
    `size` bytes; None when it is missing, not a regular file, larger than
    the snapshot, or not JSON."""
    toc = _toc_path(path)
    try:
        info = os.stat(toc)
        if not stat.S_ISREG(info.st_mode) or info.st_size > size:
            return None
        with open(toc, "rb") as fh:
            return parse_json(fh.read(size + 1))
    except (OSError, ValueError):
        return None


def _is_span(value, size: int) -> bool:
    return (isinstance(value, list) and len(value) == 2 and set(map(type, value)) <= {int}
            and 0 <= value[0] <= value[1] <= size)


def _load_part(data: bytes, toc, tokens) -> Index | None:
    """The index of the doc table and the posting lists of `tokens`, parsed
    at the spans of the table of contents `toc`, when its digest binds it to
    `data`; None when it does not. Raises ValueError when the spans hold no
    snapshot parts."""
    if not (isinstance(toc, dict) and toc.keys() == {"docs", "postings", "sha256"}
            and _is_span(toc["docs"], len(data)) and isinstance(toc["postings"], dict)
            and all(_is_span(s, len(data)) for s in toc["postings"].values())):
        return None
    spans = toc["postings"]
    digest = hashlib.sha256(data)
    digest.update(b"\0" + canonical_json_bytes({"docs": toc["docs"], "postings": spans}))
    if digest.hexdigest() != toc["sha256"]:
        return None
    return index_from_obj({
        "docs": parse_json(data[slice(*toc["docs"])]),
        "postings": {tok: parse_json(data[slice(*spans[tok])])
                     for tok in tokens if tok in spans},
    })


def load_index(path, tokens=None) -> Index:
    """The snapshot at `path`; a ValueError is raised again as `index <path>: <message>`.
    Given a query's `tokens`, only the doc table and those tokens' posting
    lists are parsed, when the table of contents beside the snapshot binds to
    its bytes; the index then holds no other posting list. A table that is
    missing, unreadable, stale or wrong is never an error: the whole snapshot
    is parsed, as without `tokens`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if tokens is not None:
        try:
            index = _load_part(data, _read_toc(path, len(data)), tokens)
            if index is not None:
                return index
        except ValueError:
            pass  # spans that bind but hold no snapshot parts: parse it all
    try:
        return index_from_obj(parse_json(data))
    except ValueError as exc:
        raise ValueError(f"index {path}: {exc}") from exc
