"""Index and search tests: document layout per record, replace/remove
semantics, query expansion, BM25 ranking against an independent oracle,
tie ordering, kind filters, and snapshot persistence."""

import copy
import json
import random

import pytest

from oracles import bm25_oracle, index_from_obj_oracle, matched_oracle
from treatise.catalog import (
    ImageRecord,
    LabelAssignment,
    Provenance,
    canonical_json_bytes,
    utc_timestamp,
)
from treatise.raster import BoundingBox, MaskRLE, Segment
from treatise.retrieval import (
    Index,
    Query,
    expand_query,
    index_from_obj,
    index_record,
    load_index,
    record_docs,
    save_index,
    search,
)


def make_record(image_id, labels_by_seg, caption=None):
    """Minimal valid-shaped record: 1x1 segments side by side, one label
    list per segment. labels_by_seg: {seg_id: [(text, definition)]}."""
    n = max(labels_by_seg, default=0)
    segments = tuple(
        Segment(id=i, bbox=BoundingBox(i - 1, 0, 1, 1),
                mask=MaskRLE(width=1, height=1, counts=(0, 1)),
                area=1, contour=((i - 1, 0),))
        for i in range(1, n + 1)
    )
    assignments = {
        sid: tuple(
            LabelAssignment(text=text, confidence=1.0, source="human",
                            definition=definition)
            for text, definition in items
        )
        for sid, items in labels_by_seg.items() if items
    }
    return ImageRecord(
        image_id=image_id, source_path="", width=max(n, 1), height=1,
        segments=segments, assignments=assignments,
        provenance=Provenance(method="native", timestamp=utc_timestamp()),
        image_caption=caption,
    )


# ------------------------------------------------------------ documents

def test_one_doc_per_segment_plus_one_per_image():
    record = make_record("img", {1: [("keel", None)],
                                 2: [("scarf", "tapered joint")]},
                         caption="Ship timbers")
    index = index_record(Index(), record)
    assert set(index.docs) == {"img#1", "img#2", "img"}
    assert index.docs["img#1"] == 1
    assert index.docs["img#2"] == 3
    # page doc: caption tokens plus every segment token
    assert index.docs["img"] == 2 + 1 + 3
    assert index.postings["keel"] == {"img#1": 1, "img": 1}
    assert set(index.postings["tapered"]) == {"img#2", "img"}


def test_caption_tokens_stay_off_segment_docs():
    record = make_record("img", {1: [("keel", None)]}, caption="ship")
    index = index_record(Index(), record)
    assert index.postings["ship"] == {"img": 1}


def test_unlabeled_segment_contributes_an_empty_doc():
    record = make_record("img", {1: []}, caption="ship")
    index = index_record(Index(), record)
    assert index.docs["img#1"] == 0
    assert index.docs["img"] == 1


def test_reindexing_the_same_record_is_a_noop():
    record = make_record("img", {1: [("keel", None)]})
    a = index_record(Index(), record)
    b = index_record(index_record(Index(), record), record)
    assert a == b


def test_reindexing_replaces_old_postings():
    index = Index()
    index_record(index, make_record("img", {1: [("keel", None)]}))
    index_record(index, make_record("img", {1: [("scarf", None)]}))
    assert "keel" not in index.postings
    assert set(index.postings["scarf"]) == {"img#1", "img"}


def test_reindexing_drops_segments_the_record_no_longer_has(tmp_path):
    index = index_record(Index(), make_record("img", {1: [("keel", None)],
                                                      2: [("scarf", None)]}))
    save_index(index, tmp_path / "index.json")
    loaded = load_index(tmp_path / "index.json")
    for idx in (index, loaded):
        index_record(idx, make_record("img", {1: [("keel", None)]}))
        assert set(idx.docs) == {"img#1", "img"}
        assert "scarf" not in idx.postings


def test_remove_image_is_exact_not_prefix_based():
    index = Index()
    index_record(index, make_record("abc", {1: [("keel", None)]}))
    index_record(index, make_record("abcd", {1: [("keel", None)]}))
    index.remove_image("abc")
    assert set(index.docs) == {"abcd#1", "abcd"}
    assert set(index.postings["keel"]) == {"abcd#1", "abcd"}


def test_record_docs_are_what_index_record_adds():
    record = make_record("img", {1: [("keel", None)], 2: [], 3: [("scarf", "joint")]},
                         caption="Ships")
    docs = record_docs(record)
    assert [doc_id for doc_id, _ in docs] == ["img#1", "img#2", "img#3", "img"]
    assert docs[-1][1] == ["ship", "keel", "scarf", "joint"]
    index = Index()
    index.add_image("img", docs)
    assert index == index_record(Index(), record)


def _remove_by_prefix(index, image_id):
    """The removal rule by a scan of every doc id, as the index did before
    it grouped doc ids by image."""
    stale = [d for d in index.docs if d == image_id or d.startswith(image_id + "#")]
    for doc_id in stale:
        del index.docs[doc_id]
    for tok, plist in list(index.postings.items()):
        for doc_id in stale:
            plist.pop(doc_id, None)
        if not plist:
            del index.postings[tok]


def test_remove_image_matches_the_prefix_scan_on_random_ids():
    # ids that are prefixes of one another, and images whose docs come and go
    rng = random.Random(11)
    ids = ["".join(rng.choice("ab") for _ in range(rng.randint(1, 4))) for _ in range(40)]
    words = ["keel", "scarf", "frame", "knee", "rib"]
    for _ in range(30):
        index, reference = Index(), Index()
        for _ in range(rng.randint(1, 25)):
            image_id = rng.choice(ids)
            docs = [(f"{image_id}#{s}", rng.choices(words, k=rng.randint(0, 3)))
                    for s in rng.sample(range(1, 9), rng.randint(0, 3))]
            docs.append((image_id, rng.choices(words, k=rng.randint(0, 4))))
            for idx, remove in ((index, Index.remove_image), (reference, _remove_by_prefix)):
                if image_id in idx.docs:
                    remove(idx, image_id)
                for doc_id, tokens in docs:
                    idx._add_doc(doc_id, tokens)
            assert index == reference
        for image_id in rng.sample(ids, 10):
            index.remove_image(image_id)
            _remove_by_prefix(reference, image_id)
            assert index == reference


def _snapshot(index, tmp_path) -> bytes:
    path = tmp_path / "snapshot.json"
    save_index(index, path)
    return path.read_bytes()


def test_insertion_order_does_not_change_the_snapshot(tmp_path):
    r1 = make_record("one", {1: [("keel", None)]})
    r2 = make_record("two", {1: [("scarf", None)]}, caption="ship")
    a = index_record(index_record(Index(), r1), r2)
    b = index_record(index_record(Index(), r2), r1)
    assert a == b
    assert _snapshot(a, tmp_path) == _snapshot(b, tmp_path)


# ------------------------------------------------------------ expansion

def test_expand_rejects_multi_hop():
    with pytest.raises(ValueError):
        expand_query(["keel"], hops=2)


def test_expand_without_glossary_just_normalizes():
    q = expand_query(["Keels", "  Côdaste "])
    assert q.expanded == ("codaste", "keel")


def test_expand_pulls_in_glossary_variants(parts_glossary):
    q = expand_query(["quilha"], glossary=parts_glossary)
    assert set(q.expanded) == {"keel", "quilha"}


def test_expand_one_hop_adds_related_entries_and_concept_labels(
        parts_glossary, ship_ontology):
    q = expand_query(["quilha"], glossary=parts_glossary,
                     ontology=ship_ontology, hops=1)
    got = set(q.expanded)
    # related glossary entry (sternpost) with all its variants
    assert {"keel", "quilha", "sternpost", "stern post", "codaste"} <= got
    # ancestor concept label via the ontology
    assert "hull component" in got


def test_expand_is_monotone_in_hops(parts_glossary, ship_ontology):
    base = set(expand_query(["quilha"], glossary=parts_glossary).expanded)
    wide = set(expand_query(["quilha"], glossary=parts_glossary,
                            ontology=ship_ontology, hops=1).expanded)
    assert base <= wide


def test_query_tokens_split_multiword_terms():
    q = Query(expanded=("stern post", "keel"))
    assert q.tokens() == {"stern", "post", "keel"}


# ------------------------------------------------------------ search

def test_search_rejects_unknown_kind():
    with pytest.raises(ValueError):
        search(Index(), Query(expanded=("keel",)), kind="page")


def test_search_empty_query_or_index():
    index = index_record(Index(), make_record("img", {1: [("keel", None)]}))
    assert search(index, Query(expanded=())) == []
    assert search(Index(), Query(expanded=("keel",))) == []
    assert search(index, Query(expanded=("keel",)), k=0) == []


def test_search_or_semantics():
    index = Index()
    index_record(index, make_record("one", {1: [("keel", None)]}))
    index_record(index, make_record("two", {1: [("scarf", None)]}))
    hits = search(index, Query(expanded=("keel", "scarf")), k=10)
    assert {h.doc_id for h in hits} == {"one", "one#1", "two", "two#1"}


def test_search_ties_break_on_doc_id_ascending():
    index = Index()
    index_record(index, make_record("b", {1: [("keel", None)]}))
    index_record(index, make_record("a", {1: [("keel", None)]}))
    hits = search(index, Query(expanded=("keel",)), k=10)
    assert len({round(h.score, 12) for h in hits}) == 1
    assert [h.doc_id for h in hits] == ["a", "a#1", "b", "b#1"]


def test_search_truncates_to_k():
    index = Index()
    index_record(index, make_record("a", {1: [("keel", None)]}))
    index_record(index, make_record("b", {1: [("keel", None)]}))
    hits = search(index, Query(expanded=("keel",)), k=2)
    assert [h.doc_id for h in hits] == ["a", "a#1"]


def test_search_kind_filters():
    index = index_record(Index(), make_record("img", {1: [("keel", None)]}))
    q = Query(expanded=("keel",))
    assert [h.doc_id for h in search(index, q, kind="image")] == ["img"]
    assert [h.doc_id for h in search(index, q, kind="segment")] == ["img#1"]


def test_bm25_scores_match_oracle_on_random_corpora():
    rng = random.Random(20260816)
    vocab = ["keel", "scarf", "heel", "frame", "plank", "oak"]
    for _ in range(30):
        index = Index()
        docs = {}
        for i in range(rng.randint(1, 6)):
            iid = f"im{i}"
            tokens = [rng.choice(vocab) for _ in range(rng.randint(0, 5))]
            index_record(index, make_record(
                iid, {1: [(t, None) for t in tokens]}))
            docs[f"{iid}#1"] = list(tokens)
            docs[iid] = list(tokens)
        terms = tuple(sorted({rng.choice(vocab) for _ in range(rng.randint(1, 3))}))
        want = bm25_oracle(docs, terms)
        hits = search(index, Query(expanded=terms), k=100)
        got = {h.doc_id: h.score for h in hits}
        assert set(got) == set(want)
        for doc_id, score in want.items():
            assert got[doc_id] == pytest.approx(score, abs=1e-9)
        ranked = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [h.doc_id for h in hits] == [d for d, _ in ranked]


def test_uncut_search_returns_exactly_the_matched_docs():
    rng = random.Random(20261020)
    vocab = ["keel", "scarf", "heel", "frame", "plank", "oak", "stern", "post"]
    for _ in range(40):
        index = Index()
        for i in range(rng.randint(1, 8)):
            labels = {s: [(" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 3))), None)
                          for _ in range(rng.randint(0, 2))]
                      for s in range(1, rng.randint(1, 4) + 1)}
            index_record(index, make_record(f"im{rng.randint(0, 5)}", labels))
        terms = tuple(" ".join(rng.choice(vocab + ["zzz"]) for _ in range(rng.randint(1, 2)))
                      for _ in range(rng.randint(0, 3)))
        q = Query(expanded=terms)
        got = {h.doc_id for h in search(index, q, k=index.doc_count)}
        assert got == matched_oracle(index.postings, q.tokens())


def test_expansion_only_widens_the_matched_set(parts_glossary, ship_ontology):
    index = Index()
    index_record(index, make_record("k", {1: [("keel", None)]}))
    index_record(index, make_record("s", {1: [("sternpost", None)]}))
    def matched(query):
        return {h.doc_id for h in search(index, query, k=index.doc_count)}

    raw = matched(expand_query(["quilha"]))
    flat = matched(expand_query(["quilha"], glossary=parts_glossary))
    wide = matched(expand_query(
        ["quilha"], glossary=parts_glossary, ontology=ship_ontology, hops=1))
    assert raw == set()
    assert flat == {"k", "k#1"}
    assert flat <= wide
    assert {"s", "s#1"} <= wide


# ------------------------------------------------------------ snapshots

def test_snapshot_roundtrip(tmp_path):
    index = Index()
    index_record(index, make_record("img", {1: [("keel", "long timber")],
                                            2: []}, caption="ship"))
    path = tmp_path / "index.json"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded == index
    assert not list(tmp_path.glob("*.tmp"))


def test_snapshot_rebuilds_removal_bookkeeping(tmp_path):
    index = Index()
    index_record(index, make_record("img", {1: [("keel", None)]}))
    path = tmp_path / "index.json"
    save_index(index, path)
    loaded = load_index(path)
    loaded.remove_image("img")
    assert loaded.docs == {}
    assert loaded.postings == {}


def test_snapshot_obj_carries_doc_count(tmp_path):
    index = index_record(Index(), make_record("img", {1: [("keel", None)]}))
    assert json.loads(_snapshot(index, tmp_path))["doc_count"] == 2


# ids and tokens with what JSON escapes or encodes in more than one byte
_ODD = ["a", "\u00e9", '"', "\\", "\n", "\u2028", "x#", "\U0001f600", "\x00"]


def test_snapshot_is_the_canonical_json_and_its_toc_spans_each_part(tmp_path):
    rng = random.Random(25)
    path = tmp_path / "index.json"
    for _ in range(150):
        index = Index()
        for _ in range(rng.randrange(12)):
            image = "f" * 64 + "".join(rng.choices(_ODD, k=rng.randrange(1, 4)))
            words = lambda: ["".join(rng.choices(_ODD, k=rng.randrange(1, 3)))
                             for _ in range(rng.randrange(5))]
            index.add_image(image, [(f"{image}#{s}", words()) for s in range(1, rng.randrange(4))]
                            + [(image, words())])
        save_index(index, path)
        data = path.read_bytes()
        assert data == canonical_json_bytes({"schema_version": 1, "doc_count": index.doc_count,
                                             "docs": index.docs, "postings": index.postings})
        toc = json.loads((tmp_path / "index.json.toc").read_bytes())
        assert json.loads(data[slice(*toc["docs"])]) == index.docs
        assert {tok: json.loads(data[slice(*span)]) for tok, span in toc["postings"].items()} \
            == index.postings
        assert load_index(path) == index
        tokens = set(rng.sample(sorted(index.postings), min(2, len(index.postings)))) | {"absent"}
        part = load_index(path, tokens)
        assert part.docs == index.docs
        assert part.postings == {tok: index.postings[tok] for tok in tokens & index.postings.keys()}


def test_snapshot_validation():
    with pytest.raises(ValueError):
        index_from_obj({"docs": [], "postings": {}})
    with pytest.raises(ValueError):
        index_from_obj({"docs": {}, "postings": {"keel": {"ghost": 1}}})
    with pytest.raises(ValueError):
        index_from_obj({"docs": {"a": 1}, "postings": {"keel": [1]}})


_BAD_COUNTS = (True, False, 1.5, -1, "3", None, [2])


def _mutate_snapshot(obj, rng):
    """One seeded edit of a snapshot object, valid or not."""
    docs, postings = obj["docs"], obj["postings"]
    kind = rng.choice(["doc", "tf", "ghost", "plist", "drop", "big", "top", "count"])
    if kind == "doc" and docs:
        docs[rng.choice(sorted(docs))] = rng.choice(_BAD_COUNTS + (0,))
    elif kind == "tf" and postings:
        plist = postings[rng.choice(sorted(postings))]
        if isinstance(plist, dict) and plist:
            plist[rng.choice(sorted(plist))] = rng.choice(_BAD_COUNTS + (0,))
    elif kind == "ghost" and postings:
        plist = postings[rng.choice(sorted(postings))]
        if isinstance(plist, dict):
            plist[f"ghost#{rng.randrange(3)}"] = rng.randrange(1, 4)
    elif kind == "plist" and postings:
        postings[rng.choice(sorted(postings))] = rng.choice([[1], "keel", None, 3])
    elif kind == "drop" and docs:
        del docs[rng.choice(sorted(docs))]
    elif kind == "big" and docs:
        docs[rng.choice(sorted(docs))] = rng.choice((2**53 - 1, 2**53, 10 ** rng.randrange(18, 400)))
    elif kind == "top":
        obj[rng.choice(["docs", "postings"])] = rng.choice([[], None, "x"])
    elif kind == "count":
        if rng.random() < 0.2:
            obj.pop("doc_count", None)
        else:
            obj["doc_count"] = rng.choice(_BAD_COUNTS + (len(docs), len(docs) + 1, 2**53))


def test_snapshot_checks_match_the_entry_by_entry_oracle(tmp_path):
    index = Index()
    for n in range(6):
        index_record(index, make_record(f"img{n}", {
            s: [(t, None)] for s, t in enumerate(
                ["keel", "mast", "keel", "rudder", "hull stern"][:n], 1)}, caption="ship"))
    base = json.loads(_snapshot(index, tmp_path))
    rng = random.Random(20)
    raised = 0
    for _ in range(1500):
        obj = copy.deepcopy(base)
        for _ in range(rng.randrange(4)):
            if isinstance(obj["docs"], dict) and isinstance(obj["postings"], dict):
                _mutate_snapshot(obj, rng)
        try:
            expected = index_from_obj_oracle(copy.deepcopy(obj))
        except ValueError as exc:
            raised += 1
            with pytest.raises(ValueError) as got:
                index_from_obj(obj)
            assert str(got.value) == str(exc)
        else:
            loaded = index_from_obj(obj)
            assert (loaded.docs, loaded.postings) == expected
    assert 300 < raised < 1400
