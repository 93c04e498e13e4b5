"""Pipeline orchestration tests.

Config validation, vocabulary seed building and caching, label enrichment,
per-method stage graphs driven against the deterministic mock server, wire
segment handling, detection binding, and provenance honesty.
"""

import base64
import hashlib
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_pgm
from treatise import fixtures, lexicon, ontology, raster
from treatise.backends import BackendClient, WireSchemaError
from treatise.catalog import (
    LabelAssignment,
    canonical_json_bytes,
    image_id_for,
    record_to_bytes,
    record_to_obj,
    validate_record,
)
from treatise.mockserver import FALLBACK_CAPTION, MockBackendServer
from treatise.pipeline import (
    PipelineConfig,
    PipelineConfigError,
    VocabularySeed,
    build_definition_prompt,
    build_label_vocabulary,
    check_inputs,
    derive_tags_from_caption,
    enrich_labels,
    load_vocabulary_seed,
    read_vocabulary_seed,
    run_pipeline,
    seed_source_hash,
)
from treatise.pipeline import _bind_detections
from treatise.raster import BoundingBox

# 4x4 page whose darkest quadrant is the top-left one; the mock grounder
# therefore boxes every tag at [0, 0, 2, 2], which is exactly the first
# quadrant segment the mock segmenter returns.
IMG = make_pgm([
    [0, 0, 9, 9],
    [0, 0, 9, 9],
    [5, 5, 7, 7],
    [5, 5, 7, 7],
])
DARKEST = [0, 0, 2, 2]


def digest(payload) -> str:
    return hashlib.sha256(canonical_json_bytes(payload)).hexdigest()


def b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


@pytest.fixture(autouse=True)
def _no_env_endpoints(monkeypatch):
    for stage in ("segment", "caption", "tag", "ground", "define"):
        monkeypatch.delenv(f"TREATISE_{stage.upper()}_URL", raising=False)


@pytest.fixture(scope="module")
def server():
    with MockBackendServer() as srv:
        yield srv


@pytest.fixture()
def client(server):
    return BackendClient(server.endpoints)


@pytest.fixture()
def seed_path(tmp_path, server, parts_glossary):
    path = tmp_path / "seed.json"
    client = BackendClient({"define": server.endpoints["define"]})
    build_label_vocabulary(parts_glossary, client=client, cache_path=path)
    return path


# ---------------------------------------------------------------- config

# a PipelineConfig checks itself when made; check_inputs checks a run's seed and client

def test_check_config_accepts_defaults():
    PipelineConfig(method="native")
    PipelineConfig(method="M1")


def test_check_config_rejects_unknown_method():
    with pytest.raises(PipelineConfigError):
        PipelineConfig(method="M9")


def test_check_config_rejects_unknown_stage_order():
    with pytest.raises(PipelineConfigError):
        PipelineConfig(method="M1", segmentation_stage="during")


def test_check_config_rejects_nonpositive_max_tags():
    with pytest.raises(PipelineConfigError):
        PipelineConfig(method="M1", max_tags=0)


def test_check_config_rejects_unknown_relief():
    with pytest.raises(PipelineConfigError):
        PipelineConfig(method="native", relief="sobel")


def test_pipeline_config_rejects_a_negative_h():
    with pytest.raises(PipelineConfigError, match="h must be non-negative"):
        PipelineConfig(method="native", h_threshold=-1)


@pytest.mark.parametrize("method", ["M4", "M4b"])
def test_check_config_requires_seed_path_for_m4_family(method, client):
    with pytest.raises(PipelineConfigError, match="--vocabulary"):
        check_inputs(PipelineConfig(method=method), client, None)
    check_inputs(PipelineConfig(method=method), client, VocabularySeed({"keel": "x"}, "h"))


# ------------------------------------------------------- caption tags

def test_derive_tags_normalizes_dedups_and_filters():
    tags = derive_tags_from_caption("Keels and Keels of oak", 32, {"and", "of"})
    assert tags == ["keel", "oak"]


def test_derive_tags_truncates():
    assert derive_tags_from_caption("keel oak plank", 2, set()) == ["keel", "oak"]


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="abc defgh. ,x-", max_size=40))
def test_caption_tags_match_token_filter_oracle(text):
    stop = frozenset({"abc", "de"})
    assert derive_tags_from_caption(text, 32, stop) == oracles.token_filter_oracle(text, stop)


def test_derive_tags_default_stopwords_are_english():
    stop = fixtures.stopwords("en")
    caption = "The keel of the ship"
    expect = [t for t in ["keel", "ship"] if t not in stop]
    got = derive_tags_from_caption(caption, 32)
    assert got == expect
    assert all(t not in stop for t in got)


# ------------------------------------------------------- prompts and seeds

def test_definition_prompt_template():
    assert (build_definition_prompt("keel")
            == 'In a shipbuilding or nautical context, define "keel".')


def test_definition_prompt_custom_context():
    assert (build_definition_prompt("keel", "rigging")
            == 'In a rigging context, define "keel".')


def test_definition_prompt_rejects_blank_term():
    with pytest.raises(ValueError):
        build_definition_prompt("   ")


def test_seed_terms_sorted():
    seed = VocabularySeed(entries={"scarf": "a", "heel": "b"}, source_hash="x")
    assert seed.terms == ("heel", "scarf")


def test_seed_source_hash_depends_on_language_and_context(parts_glossary):
    base = seed_source_hash(parts_glossary, "en")
    assert base == seed_source_hash(parts_glossary, "en")
    assert base != seed_source_hash(parts_glossary, "pt")
    assert base != seed_source_hash(parts_glossary, "en", "rigging")


def test_load_seed_rejects_unnormalized_terms():
    with pytest.raises(ValueError):
        load_vocabulary_seed('{"entries": {"Keel": "x"}, "source_hash": "h"}')


def test_load_seed_rejects_missing_fields():
    with pytest.raises(ValueError):
        load_vocabulary_seed('{"entries": []}')
    with pytest.raises(ValueError):
        load_vocabulary_seed('{"entries": {"keel": ""}, "source_hash": "h"}')


def test_load_seed_defaults_language():
    seed = load_vocabulary_seed('{"entries": {"keel": "x"}, "source_hash": "h"}')
    assert seed.language == "en"


@pytest.mark.parametrize("language", ["[1]", "null", "7"])
def test_load_seed_rejects_a_non_string_language(language):
    with pytest.raises(ValueError, match="language must be a string"):
        load_vocabulary_seed('{"entries": {"keel": "x"}, "source_hash": "h", '
                             f'"language": {language}}}')


# ------------------------------------------------- vocabulary building

def test_build_vocabulary_cold_calls_definer_once_per_entry(
        server, parts_glossary, tmp_path):
    path = tmp_path / "seed.json"
    client = BackendClient({"define": server.endpoints["define"]})
    seed = build_label_vocabulary(parts_glossary, client=client, cache_path=path)
    assert len(client.calls) == len(parts_glossary.entries) == 5
    assert all(c.stage == "define" for c in client.calls)
    assert seed.terms == ("heel", "keel", "scarf", "stern knee", "sternpost")
    for term in seed.terms:
        # mock definer echoes the quoted headword into a fixed template
        assert seed.entries[term] == (
            f"the {term} is a structural component of a wooden ship.")
    assert path.exists()
    assert read_vocabulary_seed(path) == seed


def test_build_vocabulary_warm_cache_needs_no_backend(
        seed_path, parts_glossary):
    # no client: only the cache can satisfy this
    seed = build_label_vocabulary(parts_glossary, cache_path=seed_path)
    assert len(seed.entries) == 5
    assert seed.source_hash == seed_source_hash(parts_glossary, "en")


def test_build_vocabulary_cache_misses_on_context_change(
        seed_path, parts_glossary):
    with pytest.raises(ValueError):
        build_label_vocabulary(parts_glossary, cache_path=seed_path,
                               domain_context="rigging")


def test_build_vocabulary_rebuilds_over_corrupt_cache(
        server, parts_glossary, tmp_path):
    path = tmp_path / "seed.json"
    path.write_bytes(b"not json")
    client = BackendClient({"define": server.endpoints["define"]})
    seed = build_label_vocabulary(parts_glossary, client=client, cache_path=path)
    assert len(client.calls) == 5
    assert read_vocabulary_seed(path) == seed


class _FlakyDefiner:
    """Duck-typed stand-in: fails on the n-th define call."""

    endpoints = {"define": "http://definer/v1/define"}

    def __init__(self, fail_at):
        self.prompts = []
        self.fail_at = fail_at

    def define(self, prompt):
        self.prompts.append(prompt)
        if len(self.prompts) >= self.fail_at:
            raise RuntimeError("backend down")
        term = prompt.split('"')[1]
        return {"definition": f"def of {term}"}


def test_build_vocabulary_never_persists_partial_results(
        parts_glossary, tmp_path):
    path = tmp_path / "seed.json"
    with pytest.raises(RuntimeError):
        build_label_vocabulary(parts_glossary, client=_FlakyDefiner(3),
                               cache_path=path)
    assert not path.exists()


def test_build_vocabulary_rejects_headword_collision(tmp_path):
    doc = ('{"entries": {'
           '"keel": {"definitions": {"en": "a"}, "variants": {"en": ["Keel"]}},'
           '"keel2": {"definitions": {"en": "b"}, "variants": {"en": ["keels"]}}'
           '}}')
    glossary = lexicon.load_glossary(doc)
    with pytest.raises(ValueError, match="same"):
        build_label_vocabulary(glossary, client=_FlakyDefiner(99))


# ------------------------------------------------------- enrichment

def _assignment(text, **kw):
    kw.setdefault("confidence", 0.9)
    kw.setdefault("source", "human")
    return LabelAssignment(text=text, **kw)


def test_enrich_fills_concept_and_definition(parts_glossary, ship_ontology):
    got = enrich_labels({1: (_assignment("Quilha"),)}, parts_glossary, ship_ontology)
    a = got[1][0]
    assert a.concept_id == ship_ontology.concepts_for_gloss("keel")[0]
    assert a.definition == parts_glossary.entries["keel"].definitions["en"]
    assert a.text == "Quilha"  # surface text untouched


def test_enrich_never_overwrites(parts_glossary, ship_ontology):
    src = _assignment("keel", concept_id="X", definition="custom")
    got = enrich_labels({1: (src,)}, parts_glossary, ship_ontology)
    assert got[1][0].concept_id == "X"
    assert got[1][0].definition == "custom"


def test_enrich_passes_misses_through(parts_glossary, ship_ontology):
    src = _assignment("zzzz")
    got = enrich_labels({1: (src,)}, parts_glossary, ship_ontology)
    assert got[1][0] == src


def test_enrich_preserves_order_and_keys(parts_glossary, ship_ontology):
    items = (_assignment("scarf"), _assignment("zzzz"), _assignment("heel"))
    got = enrich_labels({3: items, 1: ()}, parts_glossary, ship_ontology)
    assert set(got) == {1, 3}
    assert [a.text for a in got[3]] == ["scarf", "zzzz", "heel"]
    assert got[3][0].concept_id == "Scarf"
    assert got[3][1].concept_id is None
    assert got[3][2].concept_id == "Heel"


def test_enrich_passes_over_an_unlinked_hit_and_takes_the_first_language():
    # both entries hit "keel"; the first in id order links to no concept, and
    # the linked one has no English definition, so "la" sorts before "pt"
    glossary = lexicon.load_glossary(json.dumps({"entries": {
        "a-keel": {"definitions": {"en": "unlinked"}, "variants": {"en": ["keel"]}},
        "b-keel": {"definitions": {"pt": "quilha", "la": "carina"}, "variants": {"en": ["keel"]}},
    }}))
    onto = ontology.load_ontology(json.dumps(
        {"roots": ["Keel"], "concepts": {"Keel": {"label": "Keel", "gloss_id": "b-keel"}}}))
    got = enrich_labels({1: (_assignment("keel"),)}, glossary, onto)
    assert (got[1][0].concept_id, got[1][0].definition) == ("Keel", "carina")


# ------------------------------------------------------- native method

def test_native_run_needs_no_backends():
    img = make_pgm([[1, 2, 5, 2, 1]])
    record = run_pipeline(img, PipelineConfig(method="native"))
    assert record.provenance.method == "native"
    assert record.provenance.backend_ids == {}
    assert record.provenance.prompt_hashes == ()
    assert record.provenance.degraded is False
    assert record.assignments == {}
    assert record.image_caption is None
    assert record.image_id == image_id_for(img)
    boxes = [s.bbox for s in record.segments]
    assert boxes == [BoundingBox(0, 0, 2, 1), BoundingBox(3, 0, 2, 1)]
    assert validate_record(record, img) == []


def test_native_relief_choice_changes_partition():
    img = make_pgm([[0, 1, 3, 0]])
    raw = run_pipeline(img, PipelineConfig(method="native", relief="raw"))
    grad = run_pipeline(img, PipelineConfig(method="native", relief="gradient"))
    assert [s.bbox for s in raw.segments] == [
        BoundingBox(0, 0, 2, 1), BoundingBox(3, 0, 1, 1)]
    assert [s.bbox for s in grad.segments] == [
        BoundingBox(0, 0, 1, 1), BoundingBox(2, 0, 2, 1)]


def test_native_h_threshold_merges_shallow_basins():
    img = make_pgm([[0, 5, 4, 5, 9]])
    fine = run_pipeline(img, PipelineConfig(method="native", relief="raw"))
    coarse = run_pipeline(img, PipelineConfig(
        method="native", relief="raw", h_threshold=2))
    assert sorted(s.area for s in fine.segments) == [1, 3]
    assert [s.area for s in coarse.segments] == [5]
    assert coarse.segments[0].bbox == BoundingBox(0, 0, 5, 1)


def _traced_peak(fn, *args):
    """The peak bytes Python and numpy allocated while `fn(*args)` ran."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_native_figure_page_peak_bytes_per_pixel():
    # a 512 x 512 figure page: flat background, dark plates and rules, so
    # that the gradient's flat level is nearly the whole page
    px = np.full((512, 512), 225, dtype=np.uint8)
    for x, y, w, h, v in ((40, 50, 120, 90, 40), (300, 60, 150, 140, 60),
                          (80, 300, 100, 160, 50), (320, 330, 140, 110, 70)):
        px[y : y + h, x : x + w] = v
    px[250:253, 20:490] = 60
    px[20:490, 250:253] = 80
    px[400:403, 10:200] = 30
    grid = raster.ImageGrid(px)
    img = raster.encode_pgm(grid)
    relief = raster.gradient_magnitude(grid)
    markers = raster.regional_minima_markers(grid, 4)
    assert _traced_peak(run_pipeline, img, PipelineConfig(method="native", h_threshold=4)) \
        <= 40 * px.size
    assert _traced_peak(raster.watershed, relief, markers) <= 32 * px.size


def test_native_noise_page_write_peaks_below_the_pipeline():
    # a 256 x 256 page of blurred noise: about a thousand small segments and
    # 23k contour points at h=4; the writer's check looks the points up a
    # bounded slice at a time, so writing the record takes no more memory
    # than making it
    a = np.random.default_rng(1).integers(0, 256, (256, 256)).astype(np.float64)
    for _ in range(3):
        p = np.pad(a, 1, mode="edge")
        a = sum(p[dy : dy + 256, dx : dx + 256] for dy in range(3) for dx in range(3)) / 9
    a = (a - a.min()) / (a.max() - a.min()) * 255.0
    img = raster.encode_pgm(raster.ImageGrid(np.rint(a).astype(np.uint8)))
    cfg = PipelineConfig(method="native", h_threshold=4)
    record = run_pipeline(img, cfg)
    assert len(record.segments) > 800
    assert _traced_peak(record_to_bytes, record) <= _traced_peak(run_pipeline, img, cfg)


# ------------------------------------------------------- wire methods

def test_m1_caption_derived_labels(client):
    cfg = PipelineConfig(method="M1")
    record = run_pipeline(IMG, cfg, client=client, source_path="page.pgm")
    assert record.image_caption == FALLBACK_CAPTION
    expected_tags = derive_tags_from_caption(FALLBACK_CAPTION, 32)
    assert expected_tags  # the fallback caption has content words
    assert len(record.segments) == 4
    labels = record.assignments[1]
    assert [a.text for a in labels] == expected_tags
    assert all(a.source == "caption-derived" for a in labels)
    assert all(a.confidence == 1.0 for a in labels)
    assert set(record.provenance.backend_ids) == {"segment", "caption", "ground"}
    assert record.provenance.method == "M1"
    assert record.provenance.degraded is False
    assert record.source_path == "page.pgm"


def test_m1_in_a_language_with_no_stopword_list_filters_as_english(client):
    record = run_pipeline(IMG, PipelineConfig(method="M1", language="xx"), client=client)
    english = derive_tags_from_caption(FALLBACK_CAPTION, 32, fixtures.stopwords("en"))
    assert english != list(dict.fromkeys(lexicon.tokenize(FALLBACK_CAPTION)))  # it drops some
    assert [a.text for a in record.assignments[1]] == english


def test_m2_closed_vocabulary_canonicalizes_and_dedups(client):
    cfg = PipelineConfig(method="M2", tag_vocabulary=("Keel", "keels", "Scarf"))
    record = run_pipeline(IMG, cfg, client=client)
    labels = record.assignments[1]
    # "keels" folds into the canonical "Keel"; order of first appearance
    assert [a.text for a in labels] == ["Keel", "Scarf"]
    assert all(a.source == "tagger" for a in labels)
    assert record.image_caption is None
    vocab = {"Keel", "keels", "Scarf"}
    assert all(a.text in vocab for a in labels)


def test_m2_empty_tag_list_skips_grounding(client):
    cfg = PipelineConfig(method="M2")
    record = run_pipeline(IMG, cfg, client=client)
    assert record.assignments == {}
    assert set(record.provenance.backend_ids) == {"segment", "tag"}
    assert len(record.provenance.prompt_hashes) == 2


def test_m3_shares_the_m2_graph(client):
    cfg = PipelineConfig(method="M3", tag_vocabulary=("Keel",))
    record = run_pipeline(IMG, cfg, client=client)
    assert record.provenance.method == "M3"
    assert [a.text for a in record.assignments[1]] == ["Keel"]
    assert record.assignments[1][0].source == "tagger"


def test_m4_grounds_the_seed_vocabulary(client, seed_path, parts_glossary,
                                        ship_ontology):
    seed = read_vocabulary_seed(seed_path)
    cfg = PipelineConfig(method="M4")
    record = run_pipeline(IMG, cfg, glossary=parts_glossary,
                          ontology=ship_ontology, seed=seed, client=client)
    labels = record.assignments[1]
    assert [a.text for a in labels] == list(seed.terms)
    assert all(a.source == "tagger" for a in labels)
    # every label stays inside the closed vocabulary
    assert {a.text for a in labels} <= set(seed.terms)
    # glossary+ontology were given, so every seed term resolves
    for a in labels:
        assert a.concept_id == ship_ontology.concepts_for_gloss(a.text)[0]
        assert a.definition == parts_glossary.entries[a.text].definitions["en"]
    assert set(record.provenance.backend_ids) == {"segment", "tag", "ground"}
    assert record.provenance.degraded is False


def test_m4_without_ontology_skips_enrichment(client, seed_path, parts_glossary):
    cfg = PipelineConfig(method="M4")
    record = run_pipeline(IMG, cfg, glossary=parts_glossary,
                          seed=read_vocabulary_seed(seed_path), client=client)
    assert all(a.concept_id is None for a in record.assignments[1])


def test_m4b_sends_definitions_as_tags(client, seed_path):
    seed = read_vocabulary_seed(seed_path)
    cfg = PipelineConfig(method="M4b")
    record = run_pipeline(IMG, cfg, seed=seed, client=client)
    labels = record.assignments[1]
    assert [a.text for a in labels] == [seed.entries[t] for t in seed.terms]
    assert all(a.source == "llm" for a in labels)
    assert record.provenance.degraded is True
    assert set(record.provenance.backend_ids) == {"segment", "ground"}


def test_m4b_max_tags_truncates_in_term_order(client, seed_path):
    seed = read_vocabulary_seed(seed_path)
    cfg = PipelineConfig(method="M4b", max_tags=2)
    record = run_pipeline(IMG, cfg, seed=seed, client=client)
    assert [a.text for a in record.assignments[1]] == [
        seed.entries[seed.terms[0]], seed.entries[seed.terms[1]]]


def test_segmentation_stage_is_an_implementation_detail(client):
    records = {}
    for stage in ("before_labeling", "after_labeling"):
        cfg = PipelineConfig(method="M1", segmentation_stage=stage)
        records[stage] = run_pipeline(IMG, cfg, client=client)
    objs = {}
    for stage, rec in records.items():
        obj = record_to_obj(rec)
        objs[stage] = (obj, obj.pop("provenance"))
    assert objs["before_labeling"][0] == objs["after_labeling"][0]
    before = records["before_labeling"].provenance
    after = records["after_labeling"].provenance
    # the same calls happen in a different order
    assert before.backend_ids == after.backend_ids
    assert sorted(before.prompt_hashes) == sorted(after.prompt_hashes)
    assert before.prompt_hashes != after.prompt_hashes


def test_prompt_hashes_match_the_wire_bodies(server, client):
    cfg = PipelineConfig(method="M2", tag_vocabulary=("Keel", "keels", "Scarf"))
    record = run_pipeline(IMG, cfg, client=client)
    image = b64(IMG)
    expected = (
        digest({"image_b64": image}),
        digest({"image_b64": image, "vocabulary": ["Keel", "keels", "Scarf"]}),
        digest({"image_b64": image, "tags": ["Keel", "Scarf"]}),
    )
    assert record.provenance.prompt_hashes == expected
    assert record.provenance.backend_ids == {
        "segment": server.endpoints["segment"],
        "tag": server.endpoints["tag"],
        "ground": server.endpoints["ground"],
    }


def test_injected_client_provenance_covers_only_this_run(server):
    client = BackendClient(server.endpoints)
    client.segment(IMG)  # unrelated earlier traffic on the same client
    cfg = PipelineConfig(method="M2")
    record = run_pipeline(IMG, cfg, client=client)
    assert len(record.provenance.prompt_hashes) == 2
    assert len(client.calls) == 3


def test_wire_records_validate(client):
    cfg = PipelineConfig(method="M1")
    record = run_pipeline(IMG, cfg, client=client)
    assert validate_record(record, IMG) == []


# ------------------------------------------------------- wire errors

def test_missing_endpoints_are_reported(server):
    cfg = PipelineConfig(method="M1")
    client = BackendClient({"segment": server.endpoints["segment"]})
    with pytest.raises(PipelineConfigError) as err:
        run_pipeline(IMG, cfg, client=client)
    assert "caption" in str(err.value)
    assert "ground" in str(err.value)


def test_run_pipeline_checks_config_first():
    with pytest.raises(PipelineConfigError):
        run_pipeline(IMG, PipelineConfig(method="native", relief="sobel"))


def test_wire_segment_past_frame_is_rejected():
    table = {"segment": {digest({"image_b64": b64(IMG)}): {"segments": [
        {"bbox": [3, 3, 2, 2], "mask": {"counts": [0, 4]}},
    ]}}}
    with MockBackendServer(fixtures=table) as srv:
        cfg = PipelineConfig(method="M2")
        with pytest.raises(WireSchemaError, match="past the frame"):
            run_pipeline(IMG, cfg, client=BackendClient(srv.endpoints))


def test_wire_empty_masks_are_dropped_and_ids_reflowed():
    table = {"segment": {digest({"image_b64": b64(IMG)}): {"segments": [
        {"bbox": [0, 0, 2, 2], "mask": {"counts": [4]}},
        {"bbox": [0, 0, 4, 4], "mask": {"counts": [0, 16]}},
    ]}}}
    with MockBackendServer(fixtures=table) as srv:
        cfg = PipelineConfig(method="M2")
        record = run_pipeline(IMG, cfg, client=BackendClient(srv.endpoints))
    assert [s.id for s in record.segments] == [1]
    assert record.segments[0].bbox == BoundingBox(0, 0, 4, 4)


def test_wire_loose_boxes_are_tightened():
    # one set pixel at local index 5 of a 4x4 box: coordinates (1, 1)
    table = {"segment": {digest({"image_b64": b64(IMG)}): {"segments": [
        {"bbox": [0, 0, 4, 4], "mask": {"counts": [5, 1, 10]}},
    ]}}}
    with MockBackendServer(fixtures=table) as srv:
        cfg = PipelineConfig(method="M2")
        record = run_pipeline(IMG, cfg, client=BackendClient(srv.endpoints))
    seg = record.segments[0]
    assert seg.bbox == BoundingBox(1, 1, 1, 1)
    assert seg.area == 1
    assert seg.contour == ((1, 1),)
    assert seg.mask.counts == (0, 1)


# ------------------------------------------------------- binding

def _seg(sid, x, y, w, h):
    return SimpleNamespace(id=sid, bbox=BoundingBox(x, y, w, h))


def test_binding_picks_max_overlap():
    segs = [_seg(1, 0, 0, 2, 2), _seg(2, 2, 0, 2, 2)]
    out = _bind_detections(
        [{"text": "keel", "confidence": 0.5, "bbox": [2, 0, 2, 2]}],
        segs, "tagger")
    assert set(out) == {2}
    assert out[2][0].text == "keel"
    assert out[2][0].confidence == 0.5


def test_binding_tie_goes_to_lower_segment_id():
    segs = [_seg(1, 0, 0, 2, 2), _seg(2, 2, 0, 2, 2)]
    # box [1,0,2,2] overlaps both segments with identical IoU
    out = _bind_detections(
        [{"text": "keel", "confidence": 1.0, "bbox": [1, 0, 2, 2]}],
        segs, "tagger")
    assert set(out) == {1}


def test_binding_drops_zero_overlap():
    segs = [_seg(1, 0, 0, 2, 2)]
    out = _bind_detections(
        [{"text": "keel", "confidence": 1.0, "bbox": [3, 3, 1, 1]}],
        segs, "tagger")
    assert out == {}


def test_binding_keeps_detection_order_per_segment():
    segs = [_seg(1, 0, 0, 4, 4)]
    dets = [
        {"text": "keel", "confidence": 1, "bbox": [0, 0, 2, 2]},
        {"text": "scarf", "confidence": 0.25, "bbox": [1, 1, 2, 2]},
    ]
    out = _bind_detections(dets, segs, "llm")
    assert [a.text for a in out[1]] == ["keel", "scarf"]
    assert [a.confidence for a in out[1]] == [1.0, 0.25]
    assert all(a.source == "llm" for a in out[1])
