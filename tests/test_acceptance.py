"""Acceptance checklist for the package.

Eleven independent checks, each printing one PASS line with its measured
values (run pytest with -s or -rA to see them). Together they pin down:
watershed correctness against a brute-force immersion oracle, mask and
sidecar serialization identities, ontology reasoning, retrieval recall
and ranking, pipeline stage-order invariance, the closed-vocabulary and
prompt contracts, evaluation metric axioms, and a deterministic
end-to-end corpus run through the command line.
"""

import base64
import hashlib
import json
import math
import os
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import make_pgm, random_grid
from recordgen import fuzz_record
from treatise import lexicon, ontology as onto
from treatise.backends import BackendClient
from treatise.catalog import (
    LabelAssignment,
    canonical_json_bytes,
    image_id_for,
    read_sidecar,
    record_from_obj,
    record_to_bytes,
    record_to_obj,
    sidecar_path,
    validate_record,
)
from treatise.cli import main as cli_main
from treatise.evaluation import (
    Detection,
    TruthItem,
    evaluate,
    label_score,
    match_detections,
    truth_from_record,
)
from treatise.mockserver import MockBackendServer
from treatise.pipeline import (
    PipelineConfig,
    build_label_vocabulary,
    read_vocabulary_seed,
    run_pipeline,
)
from treatise.raster import (
    BoundingBox,
    ImageGrid,
    MaskRLE,
    regional_minima_markers,
    rle_decode,
    watershed,
)
from treatise.retrieval import (
    Index,
    Query,
    expand_query,
    index_from_obj,
    index_record,
    search,
)

GLOSSARY_PATH = os.path.join(os.path.dirname(__file__), "..", "src",
                             "treatise", "fixtures", "glossary_fig4.json")


def ok(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS: {message}")


@pytest.fixture(autouse=True)
def _no_env_endpoints(monkeypatch):
    for stage in ("segment", "caption", "tag", "ground", "define"):
        monkeypatch.delenv(f"TREATISE_{stage.upper()}_URL", raising=False)


# five small distinct pages used by the pipeline checks
PAGES = [
    make_pgm([[0, 0, 9, 9], [0, 0, 9, 9], [5, 5, 7, 7], [5, 5, 7, 7]]),
    make_pgm([[9, 1, 2], [3, 4, 5], [6, 7, 8]]),
    make_pgm([[0, 255], [128, 64]]),
    make_pgm([[10, 20, 30, 40, 50], [50, 40, 30, 20, 10]]),
    make_pgm([[7] * 6] * 6),
]


def _grid_markers(rows):
    w, h = len(rows[0]), len(rows)
    grid = ImageGrid.from_list(w, h, [v for r in rows for v in r])
    return grid, regional_minima_markers(grid)


def test_acceptance_01_watershed_matches_immersion_oracle():
    rng = random.Random(101)
    for _ in range(100):
        rows = random_grid(rng, 8, 8, 0, 7)
        grid, markers = _grid_markers(rows)
        got = watershed(grid, markers).labels.tolist()
        want = oracles.watershed_oracle(rows, markers.labels.tolist())
        assert got == want
    ok(1, "flooding identical to the level-by-level oracle on 100/100 "
          "random 8x8 grids")


def _connected(coords) -> bool:
    coords = set(coords)
    if not coords:
        return True
    stack = [next(iter(coords))]
    seen = {stack[0]}
    while stack:
        x, y = stack.pop()
        for nxt in ((x, y - 1), (x + 1, y), (x, y + 1), (x - 1, y)):
            if nxt in coords and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen == coords


def test_acceptance_02_watershed_invariants_and_ridge_fixture():
    rng = random.Random(202)
    for _ in range(1000):
        w, h = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_grid(rng, w, h)
        grid, markers = _grid_markers(rows)
        out = watershed(grid, markers).labels
        ml = markers.labels
        # labels come only from the marker set, plus 0 for line pixels
        assert set(out.ravel().tolist()) <= set(range(markers.count + 1))
        # every marker pixel keeps its label
        for rid in range(1, markers.count + 1):
            assert (out[ml == rid] == rid).all()
        # each region stays 4-connected
        for rid in range(1, markers.count + 1):
            ys, xs = np.nonzero(out == rid)
            assert _connected(zip(xs.tolist(), ys.tolist()))
    grid, markers = _grid_markers([[1, 2, 5, 2, 1]])
    assert watershed(grid, markers).labels.tolist() == [[1, 1, 0, 2, 2]]
    ok(2, "partition/preservation invariants on 1000 fuzzed instances; "
          "1x5 ridge gives regions {0,1},{3,4} and line {2}")


def _shuffled(obj, rng):
    if isinstance(obj, dict):
        keys = list(obj)
        rng.shuffle(keys)
        return {k: _shuffled(obj[k], rng) for k in keys}
    if isinstance(obj, list):
        return [_shuffled(v, rng) for v in obj]
    return obj


def test_acceptance_03_serialization_identities():
    rng = random.Random(303)
    nprng = np.random.default_rng(303)
    for _ in range(1000):
        w, h = rng.randint(1, 9), rng.randint(1, 9)
        mask = nprng.random((h, w)) < 0.5
        counts = oracles.rle_oracle(mask.ravel().astype(int).tolist())
        assert (rle_decode(MaskRLE(w, h, tuple(counts))) == mask).all()
    for _ in range(200):
        record, _ = fuzz_record(rng)
        data = record_to_bytes(record)
        again = record_from_obj(json.loads(data.decode("utf-8")))
        assert again == record
        assert record_to_bytes(again) == data
    for _ in range(50):
        record, _ = fuzz_record(rng)
        data = record_to_bytes(record)
        permuted = _shuffled(json.loads(data.decode("utf-8")), rng)
        assert record_to_bytes(record_from_obj(permuted)) == data
    ok(3, "RLE roundtrip on 1000 masks; sidecar read-after-write identity "
          "on 200 records; byte-stable under 50 key-order permutations")


def _random_dag(rng, n):
    """parents map over nodes c0..c(n-1); edges only point to lower ids."""
    parents = {}
    for i in range(n):
        choices = list(range(i))
        rng.shuffle(choices)
        parents[f"c{i}"] = [f"c{j}" for j in choices[: rng.randint(0, min(i, 3))]]
    return parents


def _dag_json(parents):
    roots = [c for c, ps in parents.items() if not ps]
    concepts = {c: {"label": c, **({"is_a": ps} if ps else {})}
                for c, ps in parents.items()}
    return json.dumps({"roots": roots, "concepts": concepts})


def test_acceptance_04_ontology_reasoning(ship_ontology):
    rng = random.Random(404)
    for _ in range(50):
        parents = _random_dag(rng, rng.randint(1, 50))
        graph = onto.load_ontology(_dag_json(parents))
        for node in parents:
            assert (set(onto.ancestors(graph, node))
                    == oracles.reachability_oracle(parents, node))
    rejected = 0
    for _ in range(20):
        parents = _random_dag(rng, rng.randint(3, 30))
        cyclic = [c for c, ps in parents.items() if ps]
        node = rng.choice(cyclic)
        ancestor = rng.choice(sorted(oracles.reachability_oracle(parents, node)))
        parents[ancestor] = parents[ancestor] + [node]  # close a cycle
        with pytest.raises(onto.CycleError):
            onto.load_ontology(_dag_json(parents))
        rejected += 1
    assert set(onto.ancestors(ship_ontology, "RiderFrame")) >= {"HullComponent"}
    assert "Frame" in onto.related(ship_ontology, "RiderFrame")
    outside = {"AuxiliaryComponent", "InternalStructure"}
    assert outside <= set(ship_ontology.roots)
    assert not outside & set(onto.ancestors(ship_ontology, "RiderFrame"))
    ok(4, "closure equals brute-force reachability on 50 random DAGs; "
          f"{rejected}/20 injected is_a cycles rejected; "
          "rider-frame closure facts hold")


def _human(text):
    return LabelAssignment(text=text, confidence=1.0, source="human")


def _matched(index, query):
    """Every doc the ranker returns when nothing is cut: a doc holding any
    query token scores above 0, since idf > 0 and tf >= 1."""
    return {h.doc_id for h in search(index, query, k=index.doc_count)}


def test_acceptance_05_expansion_only_widens_recall(parts_glossary,
                                                    ship_ontology):
    rng = random.Random(505)
    surfaces = ["keel", "Keels", "quilha", "sternpost", "stern post",
                "codaste", "scarf", "heel", "stern knee", "plank", "oak"]
    checked = 0
    for _ in range(100):
        index = Index()
        docs_tokens = {}
        for _ in range(rng.randint(1, 4)):
            record, _ = fuzz_record(rng)
            labels = {}
            for seg in record.segments:
                picked = tuple(_human(rng.choice(surfaces))
                               for _ in range(rng.randint(0, 2)))
                if picked:
                    labels[seg.id] = picked
            record = replace(record, assignments=labels)
            index_record(index, record)
            for seg in record.segments:
                toks = []
                for a in record.assignments.get(seg.id, ()):
                    toks.extend(lexicon.tokenize(a.text))
                docs_tokens[f"{record.image_id}#{seg.id}"] = toks
        terms = [rng.choice(surfaces) for _ in range(rng.randint(1, 2))]
        hops = rng.choice([0, 1])
        plain = _matched(index, expand_query(terms))
        expanded = _matched(index, expand_query(
            terms, glossary=parts_glossary, ontology=ship_ontology, hops=hops))
        assert plain <= expanded
        for doc_id, toks in docs_tokens.items():
            if toks:
                assert doc_id in _matched(index, expand_query([toks[0]]))
                checked += 1
    ok(5, "expanded match set contains the plain one on 100/100 corpora; "
          f"{checked} exact-term self-hits verified")


def test_acceptance_06_bm25_hand_check():
    index = index_from_obj({
        "docs": {"d1": 3, "d2": 1, "d3": 2},
        "postings": {
            "keel": {"d1": 2, "d2": 1},
            "scarf": {"d1": 1, "d3": 1},
            "plank": {"d3": 1},
        },
    })
    k1, b, n_docs, avgdl = 1.2, 0.75, 3, 2.0

    def term(tf, df, dl):
        idf = math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
        return idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))

    want = {
        "d1": term(2, 2, 3) + term(1, 2, 3),
        "d2": term(1, 2, 1),
        "d3": term(1, 2, 2),
    }
    query = Query(expanded=("keel", "scarf"))
    full = search(index, query, k=10)
    got = {h.doc_id: h.score for h in full}
    assert set(got) == set(want)
    for doc_id in want:
        assert abs(got[doc_id] - want[doc_id]) <= 1e-9
    for k in range(1, 6):
        assert search(index, query, k=k) == full[:k]
    ok(6, "3-document scores match the direct formula within 1e-9; "
          "top-k is a prefix of the full ranking for k=1..5")


@pytest.fixture(scope="module")
def server():
    with MockBackendServer() as srv:
        yield srv


@pytest.fixture(scope="module")
def seed_file(server, tmp_path_factory):
    with open(GLOSSARY_PATH, "rb") as fh:
        glossary = lexicon.load_glossary(fh.read())
    path = tmp_path_factory.mktemp("seed") / "seed.json"
    client = BackendClient({"define": server.endpoints["define"]})
    build_label_vocabulary(glossary, client=client, cache_path=path)
    return str(path)


def test_acceptance_07_stage_order_is_invisible(server, seed_file):
    checked = 0
    for method in ("M1", "M2", "M3", "M4", "M4b"):
        for image in PAGES:
            records = []
            for stage in ("before_labeling", "after_labeling"):
                cfg = PipelineConfig(
                    method=method, endpoints=server.endpoints,
                    segmentation_stage=stage,
                    tag_vocabulary=("Keel", "Scarf")
                    if method in ("M2", "M3") else (),
                    vocabulary_path=seed_file
                    if method in ("M4", "M4b") else None,
                )
                obj = record_to_obj(run_pipeline(image, cfg))
                obj.pop("provenance")
                records.append(obj)
            assert records[0] == records[1]
            checked += 1
    ok(7, "segment-first and segment-last records identical after "
          f"provenance erasure on {checked} method/image combinations")


def test_acceptance_08_closed_vocabulary_and_degraded_flag(server, seed_file):
    seed = read_vocabulary_seed(seed_file)
    for image in PAGES:
        cfg = PipelineConfig(method="M4", endpoints=server.endpoints,
                             vocabulary_path=seed_file)
        record = run_pipeline(image, cfg)
        texts = [a.text for items in record.assignments.values() for a in items]
        assert texts, "mock tagger echoes the vocabulary, so labels exist"
        assert set(texts) <= set(seed.terms)
        assert record.provenance.degraded is False
        cfg_b = PipelineConfig(method="M4b", endpoints=server.endpoints,
                               vocabulary_path=seed_file)
        assert run_pipeline(image, cfg_b).provenance.degraded is True
    ok(8, f"every label on {len(PAGES)} pages stays inside the "
          f"{len(seed.terms)}-term seed; every degraded-path record is flagged")


def test_acceptance_09_definition_prompt_contract(server, tmp_path):
    with open(GLOSSARY_PATH, "rb") as fh:
        glossary = lexicon.load_glossary(fh.read())
    cache = tmp_path / "seed.json"
    cold = BackendClient({"define": server.endpoints["define"]})
    build_label_vocabulary(glossary, client=cold, cache_path=cache)
    assert len(cold.calls) == len(glossary.entries)
    assert all(c.stage == "define" for c in cold.calls)
    expected = []
    for eid in sorted(glossary.entries):
        entry = glossary.entries[eid]
        head = entry.variants["en"][0] if entry.variants.get("en") else eid
        prompt = f'In a shipbuilding or nautical context, define "{head}".'
        body = canonical_json_bytes({"prompt": prompt})
        expected.append(hashlib.sha256(body).hexdigest())
    assert [c.request_sha256 for c in cold.calls] == expected

    class _Tripwire:
        def define(self, prompt):
            raise AssertionError("warm cache must not call the definer")

    warm = build_label_vocabulary(glossary, client=_Tripwire(),
                                  cache_path=cache)
    assert warm.entries == read_vocabulary_seed(cache).entries
    ok(9, f"cold build issued exactly {len(expected)} template-conformant "
          "define calls (one per entry); warm build issued zero")


def test_acceptance_10_evaluation_axioms(parts_glossary, frames_glossary,
                                         ship_ontology):
    from test_evaluation import rec, truth

    boxes = [((0, 0, 4, 4), [("keel", 1.0)]), ((8, 8, 4, 4), [("scarf", 0.5)])]
    human = rec("img", boxes, source="human")
    report = evaluate(human, truth_from_record(human), parts_glossary,
                      ship_ontology)
    assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
    assert (report.mean_iou, report.mean_label_score, report.soft_f1) == (
        1.0, 1.0, 1.0)

    wrong_words = evaluate(
        rec("img", [((0, 0, 4, 4), [("scarf", 1.0)])]),
        truth([((0, 0, 4, 4), "keel")], image_id="img"),
        parts_glossary, ship_ontology)
    assert wrong_words.f1 == 1.0 and wrong_words.soft_f1 == 0.0

    assert label_score("rider frame", "frame", frames_glossary,
                       ship_ontology) == 0.25

    rng = random.Random(1010)

    def rand_box():
        x, y = rng.randint(0, 10), rng.randint(0, 10)
        return (x, y, rng.randint(1, 4), rng.randint(1, 4))

    for _ in range(100):
        preds = [(rand_box(), rng.random()) for _ in range(rng.randint(0, 4))]
        items = tuple(TruthItem(bbox=BoundingBox(*rand_box()), text="t")
                      for _ in range(rng.randint(0, 4)))
        dets = [Detection(bbox=BoundingBox(*b), text="t", confidence=c)
                for b, c in preds]
        base = match_detections(dets, items)
        scale = rng.choice([0.25, 0.5, 2.0])
        scaled = [Detection(bbox=d.bbox, text=d.text,
                            confidence=d.confidence * scale) for d in dets]
        assert match_detections(scaled, items).pairs == base.pairs

    disagreements = 0
    for _ in range(200):
        preds = [(rand_box(), rng.random()) for _ in range(rng.randint(0, 3))]
        truth_boxes = [rand_box() for _ in range(rng.randint(0, 3))]
        dets = [Detection(bbox=BoundingBox(*b), text="t", confidence=c)
                for b, c in preds]
        items = tuple(TruthItem(bbox=BoundingBox(*b), text="t")
                      for b in truth_boxes)
        greedy = len(match_detections(dets, items, 0.3).pairs)
        best, _ = oracles.exhaustive_match_oracle(
            preds, truth_boxes, 0.3, oracles.box_iou_oracle)
        assert greedy <= best
        if greedy < best:
            disagreements += 1
    ok(10, "self-evaluation all-ones; right-boxes/wrong-words F1=1 soft-F1=0; "
           "rider-frame/frame scores 0.25; matchings invariant under "
           "confidence scaling on 100 cases; greedy vs exhaustive "
           f"disagreement rate {disagreements}/200 (reported, no threshold)")


def test_acceptance_11_end_to_end_corpus(tmp_path, capsys):
    pages = {
        "page1.pgm": (make_pgm([[0, 0, 9, 9], [0, 0, 9, 9],
                                [5, 5, 7, 7], [5, 5, 7, 7]]), "keel"),
        "page2.pgm": (make_pgm([[9, 9, 0, 0], [9, 9, 0, 0],
                                [5, 5, 7, 7], [5, 5, 7, 7]]), "sternpost"),
        "page3.pgm": (make_pgm([[7, 7, 5, 5], [7, 7, 5, 5],
                                [9, 9, 0, 0], [9, 9, 0, 0]]), "scarf"),
    }
    table = {"tag": {}}
    for name, (blob, label) in pages.items():
        body = canonical_json_bytes(
            {"image_b64": base64.b64encode(blob).decode("ascii")})
        table["tag"][hashlib.sha256(body).hexdigest()] = {
            "tags": [{"text": label, "confidence": 1.0}]}
        (tmp_path / name).write_bytes(blob)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"treatises": [{
        "title": "Livro", "language": "pt", "year": 1580,
        "images": sorted(pages)}]}))

    with MockBackendServer(fixtures=table) as srv:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"endpoints": srv.endpoints}))
        code = cli_main(["pipeline", "--config", str(cfg), "--manifest",
                         str(manifest), "--method", "m2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "processed=3 failed=0 skipped=0" in out

    sidecars = []
    for name, (blob, label) in sorted(pages.items()):
        path = sidecar_path(str(tmp_path / name))
        record = read_sidecar(Path(path).read_bytes())
        assert validate_record(record, blob) == []
        texts = [a.text for items in record.assignments.values() for a in items]
        assert texts == [label]
        sidecars.append(path)

    index_path = str(tmp_path / "index.json")
    assert cli_main(["index", "--index", index_path] + sidecars) == 0
    capsys.readouterr()

    assert cli_main(["search", "--index", index_path, "--query", "quilha",
                     "--expand", "--glossary", GLOSSARY_PATH]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines, "expansion must recall the page labeled keel"
    keel_image = image_id_for(pages["page1.pgm"][0])
    rank, doc_id, score = lines[0].split("\t")
    assert rank == "1"
    assert doc_id.split("#")[0] == keel_image
    float(score)
    assert all(line.split("\t")[1].split("#")[0] == keel_image
               for line in lines)
    ok(11, "corpus run produced 3 valid sidecars; index built; expanded "
           "search for 'quilha' ranks the keel page first")
