"""End-to-end command-line tests, run in-process against main().

Covers the exit-code contract (0 ok, 1 usage, 2 data, 3 backend), config
file handling, and a round trip through every subcommand."""

import argparse
import json
import multiprocessing
import os
import random
import shlex
import subprocess
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_pgm, mock_reply, reply_server, scripted_server
from treatise import backends
from treatise.catalog import (
    ImageRecord,
    LabelAssignment,
    Provenance,
    image_id_for,
    load_manifest,
    load_sidecar,
    sidecar_path,
    utc_timestamp,
    write_sidecar,
)
from treatise.cli import _load_config, build_parser, main
from treatise.evaluation import load_truth
from treatise.lexicon import load_glossary
from treatise.mockserver import MockBackendServer
from treatise.ontology import load_ontology
from treatise.pipeline import seed_source_hash
from treatise.raster import BoundingBox, MaskRLE, Segment, decode_pgm
from treatise.retrieval import load_index

IMG = make_pgm([
    [0, 0, 9, 9],
    [0, 0, 9, 9],
    [5, 5, 7, 7],
    [5, 5, 7, 7],
])
RIDGE = make_pgm([[0, 5, 4, 5, 9]])

GLOSSARY = os.path.join(os.path.dirname(__file__), "..", "src", "treatise",
                        "fixtures", "glossary_fig4.json")
ONTOLOGY = os.path.join(os.path.dirname(__file__), "..", "src", "treatise",
                        "fixtures", "ontology_fig6.json")


@pytest.fixture(autouse=True)
def _isolate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for stage in ("segment", "caption", "tag", "ground", "define"):
        monkeypatch.delenv(f"TREATISE_{stage.upper()}_URL", raising=False)


@pytest.fixture(scope="module")
def server():
    with MockBackendServer() as srv:
        yield srv


@pytest.fixture()
def config_path(tmp_path, server):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"endpoints": server.endpoints}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_image(tmp_path, name="page.pgm", data=IMG):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def human_sidecar(tmp_path, name, image_id, labels, box=(0, 0, 4, 4),
                  source="human"):
    """One 32x32 record with one labeled segment, written to disk."""
    x, y, w, h = box
    record = ImageRecord(
        image_id=image_id, source_path="", width=32, height=32,
        segments=(Segment(id=1, bbox=BoundingBox(x, y, w, h),
                          mask=MaskRLE(width=w, height=h, counts=(0, w * h)),
                          area=w * h, contour=((x, y),)),),
        assignments={1: tuple(
            LabelAssignment(text=t, confidence=1.0, source=source)
            for t in labels)},
        provenance=Provenance(method="native", timestamp=utc_timestamp()),
    )
    path = tmp_path / name
    write_sidecar(record, path)
    return str(path)


# ------------------------------------------------------------ exit codes

def test_no_arguments_is_a_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage" in err


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_unknown_flag(capsys):
    code, _, err = run(capsys, "segment", "--bogus")
    assert code == 1
    assert "error" in err


def test_missing_required_flag(capsys):
    assert run(capsys, "segment")[0] == 1


def test_bad_choice_value(capsys):
    assert run(capsys, "pipeline", "--method", "m9", "--in", "x.pgm")[0] == 1


@pytest.mark.parametrize("argv", [
    ["pipeline", "--method", "native"],
    ["index", "a.json"],
    ["search", "--query", "keel"],
    ["vocab", "--out", "seed.json"],
    ["eval"],
    ["eval", "--pred", "a.json"],
    ["pipeline", "--manifest", "manifest.json", "--method", "native", "--workers", "-1"],
    ["pipeline", "--manifest", "manifest.json", "--method", "native", "--workers", "0"],
], ids=" ".join)
def test_missing_or_out_of_range_option_is_a_usage_error(tmp_path, capsys, argv):
    _manifest(tmp_path, ["p1.pgm"])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not (tmp_path / "p1.pgm.segments.json").exists()


@pytest.mark.parametrize("argv", [
    ["overlay", "--in", "page.pgm", "--out", "o.pgm"],
    ["validate", "--in", "page.pgm.segments.json"],
    ["mock-serve", "--fixtures", "table.json"],
], ids=lambda argv: argv[0])
def test_commands_that_read_no_config_reject_the_config_flag(capsys, argv):
    code, _, err = run(capsys, *argv, "--config", "missing.json")
    assert code == 1
    assert "unrecognized arguments: --config" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "segment" in out


# ------------------------------------------------------------ segment

def test_segment_writes_default_sidecar(tmp_path, capsys):
    image = write_image(tmp_path)
    code, _, err = run(capsys, "segment", "--in", image)
    assert code == 0
    assert "segments" in err
    record = load_sidecar(sidecar_path(image))
    assert record.provenance.method == "native"
    assert len(record.segments) >= 1


def test_segment_honors_out_relief_and_h(tmp_path, capsys):
    image = write_image(tmp_path, data=RIDGE)
    fine = str(tmp_path / "fine.json")
    coarse = str(tmp_path / "coarse.json")
    assert run(capsys, "segment", "--in", image, "--out", fine,
               "--relief", "raw")[0] == 0
    assert run(capsys, "segment", "--in", image, "--out", coarse,
               "--relief", "raw", "--h", "2")[0] == 0
    assert len(load_sidecar(fine).segments) == 2
    assert len(load_sidecar(coarse).segments) == 1


def test_segment_missing_image_is_a_data_error(tmp_path, capsys):
    code, _, err = run(capsys, "segment", "--in", str(tmp_path / "nope.pgm"))
    assert code == 2
    assert "error" in err


def test_segment_corrupt_image_is_a_data_error(tmp_path, capsys):
    image = write_image(tmp_path, data=b"P6 not a graymap")
    assert run(capsys, "segment", "--in", image)[0] == 2


def test_segment_rejects_a_header_number_with_an_underscore(tmp_path, capsys):
    image = write_image(tmp_path, data=b"P5\n1_0 1\n255\n" + bytes(10))
    code, _, err = run(capsys, "segment", "--in", image)
    assert code == 2
    assert len(err.splitlines()) == 1 and "non-numeric header field" in err


# ------------------------------------------------------------ validate

def test_validate_ok_and_image_rehash(tmp_path, capsys):
    image = write_image(tmp_path)
    run(capsys, "segment", "--in", image)
    sidecar = sidecar_path(image)
    code, out, _ = run(capsys, "validate", "--in", sidecar)
    assert code == 0 and out.strip() == "ok"
    code, out, _ = run(capsys, "validate", "--in", sidecar, "--image", image)
    assert code == 0 and out.strip() == "ok"


def test_validate_catches_wrong_image_hash(tmp_path, capsys):
    image = write_image(tmp_path)
    run(capsys, "segment", "--in", image)
    other = write_image(tmp_path, "other.pgm", RIDGE)
    code, out, _ = run(capsys, "validate", "--in", sidecar_path(image),
                       "--image", other)
    assert code == 2
    assert "image_id" in out


def test_validate_reports_tampering(tmp_path, capsys):
    image = write_image(tmp_path)
    run(capsys, "segment", "--in", image)
    sidecar = sidecar_path(image)
    doc = json.loads(open(sidecar).read())
    doc["segments"][0]["area"] += 1
    open(sidecar, "w").write(json.dumps(doc))
    code, out, _ = run(capsys, "validate", "--in", sidecar)
    assert code == 2
    assert "area" in out


@pytest.mark.parametrize("bbox", [[0, 0, 0, 4], [-1, 0, 4, 4]])
def test_validate_names_the_path_of_an_impossible_bbox(tmp_path, capsys, bbox):
    sidecar = tmp_path / "a.json"
    human_sidecar(tmp_path, sidecar.name, "a" * 64, ["keel"])
    doc = json.loads(sidecar.read_text())
    doc["segments"][0]["bbox"] = bbox
    sidecar.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", "--in", str(sidecar))
    assert code == 2
    assert out == ""
    assert err.startswith("error: /segments/0/bbox: ")


def test_validate_rejects_non_json(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{nope")
    code, out, err = run(capsys, "validate", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: /: invalid JSON: ") and err.count("\n") == 1


def test_validate_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_bytes(b"[" * 100000)
    code, out, err = run(capsys, "validate", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: /: invalid JSON: ") and err.count("\n") == 1


def _sidecar_doc(width, height, segments):
    """A sidecar document of `segments`, each (id, [x, y, w, h], area, counts, contour)."""
    return {
        "schema_version": 1, "image_id": "a" * 64, "source_path": "", "width": width,
        "height": height, "assignments": {},
        "segments": [{"id": sid, "bbox": list(bbox), "area": area,
                      "mask": {"counts": list(counts)}, "contour": [list(p) for p in contour]}
                     for sid, bbox, area, counts, contour in segments],
        "provenance": {"method": "native", "backend_ids": {}, "prompt_hashes": [],
                       "timestamp": "2026-01-01T00:00:00Z"},
    }


G = 10**9
# valid masks of up to G x G pixels in a G x G frame, 10.25e18 pixels in all, more than 2**63
_GIANT_SEGMENTS = [
    (1, [0, 0, G, G], G * G, [0, G * G], [[0, 0], [G - 1, G - 1], [G - 1, 0]]),
    (2, [0, 0, G, G], 2, [0, 1, G * G - 2, 1], [[0, 0], [G - 1, G - 1]]),
    (3, [0, 0, G, G], 2 * G, [0, G, G * G - 2 * G, G], [[5, 0], [5, G - 1]]),
    (4, [0, 0, G, G], G * G - 1, [1, G * G - 1], [[1, 0], [0, 1], [G - 1, G - 1]]),
    (5, [G // 2, G // 2, G // 2, G // 2], (G // 2) ** 2, [0, (G // 2) ** 2], [[G // 2, G - 1]]),
    (6, [0, 0, G, G], G * G, [0, G * G], [[0, 7]]),
    *[(7 + k, [0, 0, G, G], G * G, [0, G * G], [[G - 1, 3]]) for k in range(5)],
]


def _validate_traced(capsys, path):
    """`validate` of `path`, with the peak bytes Python and numpy allocated meanwhile."""
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "validate", "--in", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out, err, peak


def test_validate_giant_boxes_without_decoding_them(tmp_path, capsys):
    path = tmp_path / "giant.json"
    path.write_text(json.dumps(_sidecar_doc(G, G, _GIANT_SEGMENTS)))
    code, out, err, peak = _validate_traced(capsys, path)
    assert (code, out, err) == (0, "ok\n", "")
    assert peak < 1 << 20


def test_validate_checks_the_contours_of_giant_boxes(tmp_path, capsys):
    segments = [list(seg) for seg in _GIANT_SEGMENTS]
    segments[0][4] = segments[0][4] + [[G // 2, 7]]
    segments[3][4] = segments[3][4] + [[1, 1], [0, 0]]
    segments[5][4] = segments[5][4] + [[G - 1, G - 2], [7, 1]]
    segments[10][4] = segments[10][4] + [[3, G - 2]]
    path = tmp_path / "giant.json"
    path.write_text(json.dumps(_sidecar_doc(G, G, segments)))
    code, out, err, peak = _validate_traced(capsys, path)
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        "/segments/0/contour/3: contour pixel is interior",
        "/segments/3/contour/3: contour pixel is interior",
        "/segments/3/contour/4: contour pixel not in mask",
        "/segments/5/contour/2: contour pixel is interior",
        "/segments/10/contour/1: contour pixel is interior",
    ]
    assert peak < 1 << 20


def test_validate_reports_a_box_past_2_to_the_62(tmp_path, capsys):
    far = 10**30
    path = tmp_path / "far.json"
    path.write_text(json.dumps(_sidecar_doc(far, far, [
        (1, [0, 0, 3, 2], 6, [0, 6], [[0, 0]]),
        (2, [far - 3, 0, 3, 2], 6, [0, 6], [[far - 3, 0]]),
    ])))
    code, out, err = run(capsys, "validate", "--in", str(path))
    assert (code, out, err) == (2, "/segments/1/bbox: box edge or area past 2**62 pixels\n", "")


_SMALL_SEGMENT = (1, [0, 0, 3, 2], 6, [0, 6], [[0, 0], [2, 1]])


@pytest.mark.parametrize("value", [2**63, -2**63, 10**30, -10**30])
@pytest.mark.parametrize("field", ["count", "area", "bbox x", "bbox y", "bbox w", "bbox h",
                                   "contour x", "contour y"])
def test_validate_values_past_int64_give_one_line_each(tmp_path, capsys, field, value):
    doc = _sidecar_doc(32, 32, [_SMALL_SEGMENT])
    seg = doc["segments"][0]
    container, key = {
        "count": (seg["mask"]["counts"], 1), "area": (seg, "area"),
        "bbox x": (seg["bbox"], 0), "bbox y": (seg["bbox"], 1),
        "bbox w": (seg["bbox"], 2), "bbox h": (seg["bbox"], 3),
        "contour x": (seg["contour"][1], 0), "contour y": (seg["contour"][1], 1),
    }[field]
    container[key] = value
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", "--in", str(path))
    assert code == 2
    if err:
        assert out == "" and err.count("\n") == 1 and err.startswith("error: /segments/0/")
    else:
        assert out and all(line.startswith("/segments/0/") for line in out.splitlines())
    if field.startswith("contour"):
        assert out == "/segments/0/contour/1: contour pixel not in mask\n"


# ------------------------------------------------------------ pipeline

def test_pipeline_m1_single_image(tmp_path, capsys, config_path):
    image = write_image(tmp_path)
    code, _, err = run(capsys, "pipeline", "--config", config_path,
                       "--in", image, "--method", "m1")
    assert code == 0
    record = load_sidecar(sidecar_path(image))
    assert record.provenance.method == "M1"
    assert record.image_caption
    assert "labels" in err


def test_pipeline_needs_method(tmp_path, capsys, config_path):
    image = write_image(tmp_path)
    assert run(capsys, "pipeline", "--config", config_path, "--in", image)[0] == 1


def test_pipeline_needs_input_or_manifest(capsys, config_path):
    code, _, err = run(capsys, "pipeline", "--config", config_path,
                       "--method", "m1")
    assert code == 1
    assert "manifest" in err.lower() or "--in" in err


def test_pipeline_m4_needs_vocabulary(tmp_path, capsys, config_path):
    image = write_image(tmp_path)
    assert run(capsys, "pipeline", "--config", config_path, "--in", image,
               "--method", "m4")[0] == 2


def test_pipeline_unreachable_backend_exits_3(tmp_path, capsys):
    dead = {s: f"http://127.0.0.1:9/v1/{s}"
            for s in ("segment", "caption", "tag", "ground", "define")}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"endpoints": dead}))
    image = write_image(tmp_path)
    code, _, err = run(capsys, "pipeline", "--config", str(cfg),
                       "--in", image, "--method", "m1")
    assert code == 3
    assert "error" in err


def test_pipeline_env_var_overrides_config(tmp_path, capsys, config_path,
                                           monkeypatch):
    monkeypatch.setenv("TREATISE_SEGMENT_URL", "http://127.0.0.1:9/v1/segment")
    image = write_image(tmp_path)
    code, _, _ = run(capsys, "pipeline", "--config", config_path,
                     "--in", image, "--method", "m1")
    assert code == 3


# a reply nested past the decoder's recursion, error replies that are no JSON
# object, a reply over the body bound (cut to 1 KiB here), a redirect off
# http, and redirects that would resend the POST: none is followed
HOSTILE_REPLIES = [(200, b"[" * 100000, None, None), (400, b"[1]", None, None),
                   (400, b'"x"', None, None),
                   (200, json.dumps({"caption": "x" * 2048}).encode(), 1024, None),
                   (302, b"", None, {"Location": "ftp://127.0.0.1:9/x"}),
                   (307, b"", None, {"Location": "/v1/moved"}),
                   (308, b"", None, {"Location": "/v1/moved"})]


@pytest.mark.parametrize("status,body,bound,headers", HOSTILE_REPLIES,
                         ids=["nested", "list", "string", "oversized", "redirect-ftp",
                              "redirect-307", "redirect-308"])
def test_pipeline_hostile_reply_exits_3(tmp_path, capsys, monkeypatch, status, body, bound,
                                        headers):
    if bound is not None:
        monkeypatch.setattr(backends, "MAX_BODY_BYTES", bound)
    image = write_image(tmp_path)
    cfg = tmp_path / "cfg.json"
    with reply_server(status, body, headers) as (base, hits):
        cfg.write_text(json.dumps({"endpoints": {s: f"{base}/v1/{s}" for s in backends.STAGES}}))
        code, _, err = run(capsys, "pipeline", "--config", str(cfg),
                           "--in", image, "--method", "m1")
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert len(hits) == 1  # not retried


def _config_for(tmp_path, base):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"endpoints": {s: f"{base}/v1/{s}" for s in backends.STAGES}}))
    return str(cfg)


def test_one_connection_serves_consecutive_pipeline_calls(tmp_path, capsys):
    image = write_image(tmp_path)
    with scripted_server(mock_reply) as (base, hits):
        argv = ("pipeline", "--config", _config_for(tmp_path, base), "--in", image,
                "--method", "m1")
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, *argv)[0] == 0
    assert len(hits) == 6 and len({h.peer for h in hits}) == 1


def test_forked_workers_leave_the_parents_connection_alone(tmp_path, capsys):
    image = write_image(tmp_path)
    manifest = _manifest(tmp_path, ["p1.pgm", "p2.pgm", "p3.pgm", "p4.pgm"])
    with scripted_server(mock_reply) as (base, hits):
        cfg = _config_for(tmp_path, base)
        single = ("pipeline", "--config", cfg, "--in", image, "--method", "m1")
        assert run(capsys, *single)[0] == 0
        parent = hits[0].peer
        code, out, _ = run(capsys, "pipeline", "--config", cfg, "--manifest", manifest,
                           "--method", "m1", "--workers", "2")
        assert (code, out) == (0, "processed=4 failed=0 skipped=0\n")
        assert len(hits) == 15 and parent not in {h.peer for h in hits[3:]}
        assert run(capsys, *single)[0] == 0
    assert {h.peer for h in hits[15:]} == {parent} and len(hits) == 18


@pytest.mark.parametrize("url", ["notaurl", "ftp://x/v1/segment", "file:///etc/hostname",
                                 "http://h:99999/v1/segment"])
def test_bad_endpoint_url_exits_2_before_any_request(tmp_path, capsys, monkeypatch, url):
    image = write_image(tmp_path)
    cfg = tmp_path / "cfg.json"
    argv = ("pipeline", "--config", str(cfg), "--in", image, "--method", "m1")
    with reply_server(200, b"{}") as (base, hits):
        good = {s: f"{base}/v1/{s}" for s in backends.STAGES}
        cfg.write_text(json.dumps({"endpoints": {**good, "segment": url}}))
        code, _, err = run(capsys, *argv)
        assert (code, err) == (2, f"error: config {cfg}: endpoint segment URL {url!r} "
                                  "is not valid\n")
        cfg.write_text(json.dumps({"endpoints": good}))
        monkeypatch.setenv("TREATISE_SEGMENT_URL", url)
        code, _, err = run(capsys, *argv)
        assert (code, err) == (2, f"error: endpoint segment URL {url!r} is not valid\n")
    assert hits == []



def test_corpus_bad_endpoint_url_is_one_error(tmp_path, capsys, monkeypatch):
    manifest = _manifest(tmp_path, ["p1.pgm", "p2.pgm", "p3.pgm"])
    monkeypatch.setenv("TREATISE_SEGMENT_URL", "notaurl")
    code, out, err = run(capsys, "pipeline", "--manifest", manifest, "--method", "m1")
    assert (code, out, err) == (2, "", "error: endpoint segment URL 'notaurl' is not valid\n")
    assert run(capsys, "pipeline", "--manifest", manifest, "--method", "native")[0] == 0


# ------------------------------------------------------------ vocab

def test_vocab_builds_then_serves_from_cache(tmp_path, capsys, config_path):
    seed = str(tmp_path / "seed.json")
    code, _, err = run(capsys, "vocab", "--config", config_path,
                       "--glossary", GLOSSARY, "--out", seed)
    assert code == 0
    assert "5 terms" in err
    entries = json.loads(open(seed).read())["entries"]
    assert len(entries) == 5
    # warm: no endpoints configured at all, the cache must satisfy it
    assert run(capsys, "vocab", "--glossary", GLOSSARY, "--out", seed)[0] == 0


def test_vocab_requires_glossary(tmp_path, capsys, config_path):
    assert run(capsys, "vocab", "--config", config_path,
               "--out", str(tmp_path / "s.json"))[0] == 1


def test_pipeline_rejects_a_seed_that_is_not_an_object(tmp_path, capsys, config_path):
    seed = tmp_path / "seed.json"
    seed.write_text("[]")
    image = write_image(tmp_path)
    code, out, err = run(capsys, "pipeline", "--config", config_path, "--in", image,
                         "--method", "m4", "--vocabulary", str(seed))
    assert (code, out) == (2, "")
    assert err == "error: vocabulary seed must be a JSON object\n"
    assert not os.path.exists(sidecar_path(image))


def test_vocab_rebuilds_a_cached_seed_that_is_not_an_object(tmp_path, capsys, config_path):
    seed = tmp_path / "seed.json"
    seed.write_text("[]")
    code, _, err = run(capsys, "vocab", "--config", config_path,
                       "--glossary", GLOSSARY, "--out", str(seed))
    assert code == 0
    assert "5 terms" in err
    assert len(json.loads(seed.read_text())["entries"]) == 5


def test_pipeline_m4b_with_seed(tmp_path, capsys, config_path):
    seed = str(tmp_path / "seed.json")
    run(capsys, "vocab", "--config", config_path, "--glossary", GLOSSARY,
        "--out", seed)
    image = write_image(tmp_path)
    code, _, _ = run(capsys, "pipeline", "--config", config_path, "--in", image,
                     "--method", "m4b", "--vocabulary", seed)
    assert code == 0
    record = load_sidecar(sidecar_path(image))
    assert record.provenance.degraded is True
    assert record.provenance.method == "M4b"


# ------------------------------------------------------------ enrich

def test_enrich_in_place_and_to_new_file(tmp_path, capsys):
    sidecar = human_sidecar(tmp_path, "a.json", "a" * 64, ["quilha"])
    out = str(tmp_path / "enriched.json")
    code, _, _ = run(capsys, "enrich", "--in", sidecar, "--out", out,
                     "--glossary", GLOSSARY, "--ontology", ONTOLOGY)
    assert code == 0
    assert load_sidecar(sidecar).assignments[1][0].concept_id is None
    assert load_sidecar(out).assignments[1][0].concept_id == "Keel"
    # default output is in place
    code, _, _ = run(capsys, "enrich", "--in", sidecar,
                     "--glossary", GLOSSARY, "--ontology", ONTOLOGY)
    assert code == 0
    assert load_sidecar(sidecar).assignments[1][0].concept_id == "Keel"


def test_enrich_requires_both_knowledge_files(tmp_path, capsys):
    sidecar = human_sidecar(tmp_path, "a.json", "a" * 64, ["quilha"])
    assert run(capsys, "enrich", "--in", sidecar,
               "--glossary", GLOSSARY)[0] == 1


# ------------------------------------------------------------ index/search

def test_index_and_search_roundtrip(tmp_path, capsys):
    a = human_sidecar(tmp_path, "a.json", "a" * 64, ["keel"])
    b = human_sidecar(tmp_path, "b.json", "b" * 64, ["sternpost"])
    idx = str(tmp_path / "idx.json")
    code, _, err = run(capsys, "index", "--index", idx, a, b)
    assert code == 0
    assert "4 documents" in err

    # raw query misses: "quilha" is not on any record
    code, out, _ = run(capsys, "search", "--index", idx, "--query", "quilha")
    assert code == 0 and out == ""

    code, out, _ = run(capsys, "search", "--index", idx, "--query", "quilha",
                       "--expand", "--glossary", GLOSSARY)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    rank, doc_id, score = lines[0].split("\t")
    assert rank == "1"
    assert doc_id.startswith("a" * 64)
    float(score)

    code, out, _ = run(capsys, "search", "--index", idx, "--query", "quilha",
                       "--expand", "--glossary", GLOSSARY, "--ontology",
                       ONTOLOGY, "--hops", "1", "--kind", "image")
    hits = [line.split("\t")[1] for line in out.strip().splitlines()]
    assert hits == ["a" * 64, "b" * 64]


def test_index_updates_and_force_rebuilds(tmp_path, capsys):
    a = human_sidecar(tmp_path, "a.json", "a" * 64, ["keel"])
    b = human_sidecar(tmp_path, "b.json", "b" * 64, ["sternpost"])
    idx = str(tmp_path / "idx.json")
    run(capsys, "index", "--index", idx, a)
    code, _, err = run(capsys, "index", "--index", idx, b)
    assert code == 0
    assert "4 documents" in err
    code, _, err = run(capsys, "index", "--index", idx, "--force", b)
    assert code == 0
    assert "2 documents" in err


def test_search_expand_requires_glossary(tmp_path, capsys):
    a = human_sidecar(tmp_path, "a.json", "a" * 64, ["keel"])
    idx = str(tmp_path / "idx.json")
    run(capsys, "index", "--index", idx, a)
    assert run(capsys, "search", "--index", idx, "--query", "x",
               "--expand")[0] == 1


@pytest.mark.parametrize("snapshot, named", [
    ('{"docs": {"a": []}, "postings": {}}', "'a'"),
    ('{"docs": {"a": 1e400}, "postings": {}}', "'a'"),
    ('{"docs": {"a": true}, "postings": {}}', "'a'"),
    ('{"docs": {"a": -1}, "postings": {}}', "'a'"),
    ('{"docs": {"a": 1}, "postings": {"keel": {"a": null}}}', "'keel'"),
    ('{"docs": {"a": 1}, "postings": {"keel": {"a": 1.5}}}', "'keel'"),
    ('{"docs": {"a": 1}, "postings": {"keel": {"a": true}}}', "'keel'"),
])
def test_search_rejects_malformed_snapshot_counts(tmp_path, capsys, snapshot, named):
    idx = tmp_path / "idx.json"
    idx.write_text(snapshot)
    code, out, err = run(capsys, "search", "--index", str(idx), "--query", "keel")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and named in err


def test_index_requires_snapshot_path(tmp_path, capsys):
    a = human_sidecar(tmp_path, "a.json", "a" * 64, ["keel"])
    assert run(capsys, "index", a)[0] == 1


# ------------------------------------------------------------ eval

def test_eval_reports_and_json_output(tmp_path, capsys):
    pred = human_sidecar(tmp_path, "pred.json", "a" * 64, ["keel"],
                         source="tagger")
    truth = human_sidecar(tmp_path, "truth.json", "a" * 64, ["keel"])
    report = str(tmp_path / "report.json")
    code, out, _ = run(capsys, "eval", "--pred", pred, "--truth", truth,
                       "--glossary", GLOSSARY, "--ontology", ONTOLOGY,
                       "--out", report)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("image")
    assert lines[-1].startswith("ALL")
    doc = json.loads(open(report).read())
    assert doc["aggregate"]["f1"] == 1.0
    assert len(doc["images"]) == 1


def test_eval_works_without_knowledge_files(tmp_path, capsys):
    pred = human_sidecar(tmp_path, "pred.json", "a" * 64, ["keel"],
                         source="tagger")
    truth = human_sidecar(tmp_path, "truth.json", "a" * 64, ["keel"])
    code, out, _ = run(capsys, "eval", "--pred", pred, "--truth", truth)
    assert code == 0
    assert "1.000" in out


def test_eval_rejects_unpaired_files(tmp_path, capsys):
    pred = human_sidecar(tmp_path, "pred.json", "a" * 64, ["keel"])
    assert run(capsys, "eval", "--pred", pred)[0] == 1
    assert run(capsys, "eval")[0] == 1


def test_eval_rejects_machine_truth(tmp_path, capsys):
    pred = human_sidecar(tmp_path, "pred.json", "a" * 64, ["keel"])
    truth = human_sidecar(tmp_path, "truth.json", "a" * 64, ["keel"],
                          source="tagger")
    assert run(capsys, "eval", "--pred", pred, "--truth", truth)[0] == 2


# ------------------------------------------------------------ overlay

def test_overlay_writes_a_graymap(tmp_path, capsys):
    image = write_image(tmp_path)
    run(capsys, "segment", "--in", image)
    out = str(tmp_path / "overlay.pgm")
    code, _, _ = run(capsys, "overlay", "--in", image, "--out", out)
    assert code == 0
    grid = decode_pgm(open(out, "rb").read())
    assert (grid.width, grid.height) == (4, 4)


def test_overlay_explicit_sidecar(tmp_path, capsys):
    image = write_image(tmp_path)
    sidecar = str(tmp_path / "s.json")
    run(capsys, "segment", "--in", image, "--out", sidecar)
    out = str(tmp_path / "overlay.pgm")
    assert run(capsys, "overlay", "--in", image, "--sidecar", sidecar,
               "--out", out)[0] == 0


@pytest.mark.parametrize("command", ["eval", "overlay"])
def test_out_file_is_replaced_whole_or_not_at_all(tmp_path, capsys, monkeypatch, command):
    image = write_image(tmp_path)
    run(capsys, "segment", "--in", image)
    pred = human_sidecar(tmp_path, "pred.json", "a" * 64, ["keel"], source="tagger")
    truth = human_sidecar(tmp_path, "truth.json", "a" * 64, ["keel"])
    argv = {"eval": ["eval", "--pred", pred, "--truth", truth],
            "overlay": ["overlay", "--in", image]}[command]
    out = tmp_path / "out.bin"
    assert run(capsys, *argv, "--out", str(out))[0] == 0
    if command == "eval":
        text = out.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    out.write_bytes(b"old")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2 and "disk full" in err
    assert out.read_bytes() == b"old"
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


# ------------------------------------------------------------ config file

def test_default_config_is_picked_up_from_cwd(tmp_path, capsys, server):
    (tmp_path / "treatise.json").write_text(
        json.dumps({"endpoints": server.endpoints}))
    image = write_image(tmp_path)
    code, _, _ = run(capsys, "pipeline", "--in", image, "--method", "m1")
    assert code == 0


def test_config_rejects_missing_knowledge_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"glossary": str(tmp_path / "absent.json")}))
    image = write_image(tmp_path)
    code, _, err = run(capsys, "segment", "--config", str(cfg), "--in", image)
    assert code == 2
    assert "does not exist" in err


def test_config_rejects_bad_endpoint_url(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"endpoints": {"segment": "not-a-url"}}))
    image = write_image(tmp_path)
    assert run(capsys, "segment", "--config", str(cfg), "--in", image)[0] == 2


@pytest.mark.parametrize("endpoints", [5, ["a"], {"tag": 5}])
def test_config_rejects_malformed_endpoints(tmp_path, capsys, endpoints):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"endpoints": endpoints}))
    image = write_image(tmp_path)
    code, _, err = run(capsys, "segment", "--config", str(cfg), "--in", image)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith(f"error: config {cfg}:")


# wrong JSON types (a bool is no number, a string no list) and two unknown
# keys, the former aliases of seg_stage and vocabulary
BAD_CONFIGS = [
    {"glossary": []}, {"manifest": []}, {"index": []}, {"max_tags": []},
    {"timeout": {}}, {"tag_vocabulary": 5}, {"tag_vocabulary": "keel"},
    {"tag_vocabulary": [1]}, {"h": []}, {"h": 2.5}, {"h": True},
    {"method": ["m2"]}, {"segmentation_stage": "after_labeling"},
    {"vocabulary_path": "x"},
]
CONFIG_COMMANDS = {
    "segment": ["segment", "--in", "page.pgm"],
    "pipeline": ["pipeline", "--method", "m2", "--in", "page.pgm"],
    "search": ["search", "--query", "keel"],
}


@pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
@pytest.mark.parametrize("doc", BAD_CONFIGS, ids=json.dumps)
def test_config_rejects_bad_key_or_type(tmp_path, capsys, command, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    write_image(tmp_path)
    name, *rest = CONFIG_COMMANDS[command]
    code, _, err = run(capsys, name, "--config", str(cfg), *rest)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith(f"error: config {cfg}:")


def test_config_values_reach_the_segmenter(tmp_path, capsys):
    # under raw relief, RIDGE's second basin is 1 deep: h=2 merges it away
    image = write_image(tmp_path, data=RIDGE)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h": 2, "relief": "raw"}))
    assert run(capsys, "segment", "--in", image, "--relief", "raw")[2].startswith("2 segments")
    code, _, err = run(capsys, "segment", "--config", str(cfg), "--in", image)
    assert code == 0 and err.startswith("1 segments")
    # a flag wins over the config key
    code, _, err = run(capsys, "segment", "--config", str(cfg), "--in", image, "--h", "0")
    assert code == 0 and err.startswith("2 segments")


def test_vocab_reads_domain_context_from_config(tmp_path, capsys, server):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"endpoints": server.endpoints, "domain_context": "rigging"}))
    seed = tmp_path / "seed.json"
    assert run(capsys, "vocab", "--config", str(cfg), "--glossary", GLOSSARY,
               "--out", str(seed))[0] == 0
    glossary = load_glossary(open(GLOSSARY, "rb").read())
    assert json.loads(seed.read_text())["source_hash"] == seed_source_hash(
        glossary, "en", "rigging")


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    doc = json.loads(example)
    for key in ("glossary", "ontology", "manifest"):
        if key in doc:
            (tmp_path / doc[key]).write_text("{}")
    cfg = tmp_path / "treatise.json"
    cfg.write_text(example)
    assert _load_config(argparse.Namespace(config=str(cfg))) == doc


def test_config_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[]")
    image = write_image(tmp_path)
    assert run(capsys, "segment", "--config", str(cfg), "--in", image)[0] == 2


@pytest.mark.parametrize("data", [b'{"h": 2,}', b"\xff"], ids=["trailing-comma", "not-utf8"])
def test_config_that_is_not_json_is_named(tmp_path, capsys, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data)
    image = write_image(tmp_path)
    code, out, err = run(capsys, "segment", "--config", str(cfg), "--in", image)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config {cfg}: invalid JSON: ") and err.count("\n") == 1
    assert not os.path.exists(sidecar_path(image))


# ------------------------------------------------------------ corpus

def _manifest(tmp_path, names):
    for name in names:
        (tmp_path / name).write_bytes(IMG)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "year_range": [1570, 1620],
        "treatises": [{"title": "Livro", "language": "pt", "year": 1580,
                       "images": names, "count": len(names)}],
    }))
    return str(path)


def test_corpus_run_processes_then_skips(tmp_path, capsys):
    manifest = _manifest(tmp_path, ["p1.pgm", "p2.pgm"])
    code, out, _ = run(capsys, "pipeline", "--manifest", manifest,
                       "--method", "native", "--workers", "2")
    assert code == 0
    assert "processed=2 failed=0 skipped=0" in out
    assert os.path.exists(str(tmp_path / "p1.pgm.segments.json"))
    code, out, _ = run(capsys, "pipeline", "--manifest", manifest,
                       "--method", "native")
    assert code == 0
    assert "processed=0 failed=0 skipped=2" in out
    code, out, _ = run(capsys, "pipeline", "--manifest", manifest,
                       "--method", "native", "--force")
    assert code == 0
    assert "processed=2" in out


def test_corpus_reprocesses_sidecars_it_cannot_trust(tmp_path, capsys):
    manifest = _manifest(tmp_path, ["p1.pgm", "p2.pgm", "p3.pgm", "p4.pgm"])
    assert run(capsys, "pipeline", "--manifest", manifest, "--method", "native")[0] == 0
    # not JSON; a record of other image bytes; a record made by another method
    (tmp_path / "p1.pgm.segments.json").write_text("garbage")
    (tmp_path / "p2.pgm").write_bytes(RIDGE)
    p3 = str(tmp_path / "p3.pgm.segments.json")
    record = load_sidecar(p3)
    write_sidecar(replace(record, provenance=replace(record.provenance, method="M2")), p3)
    code, out, _ = run(capsys, "pipeline", "--manifest", manifest, "--method", "native")
    assert code == 0
    assert "processed=3 failed=0 skipped=1" in out
    for name in ("p1.pgm", "p2.pgm", "p3.pgm"):
        record = load_sidecar(sidecar_path(tmp_path / name))
        assert record.provenance.method == "native"
        assert record.image_id == image_id_for((tmp_path / name).read_bytes())



def test_corpus_reprocesses_sidecars_too_big_or_too_deep_to_read(tmp_path, capsys):
    manifest = _manifest(tmp_path, ["p1.pgm", "p2.pgm"])
    m = 10**6
    (tmp_path / "p1.pgm.segments.json").write_text(json.dumps(
        _sidecar_doc(m, m, [(1, [0, 0, m, m], m * m, [0, m * m], [[0, 0]])])))
    (tmp_path / "p2.pgm.segments.json").write_text("[" * 100000)
    code, out, _ = run(capsys, "pipeline", "--manifest", manifest, "--method", "native",
                       "--workers", "1")
    assert code == 0
    assert "processed=2 failed=0 skipped=0" in out


def test_one_validation_per_written_sidecar(tmp_path, capsys, monkeypatch):
    from treatise import catalog, pipeline

    calls = []
    real = catalog.validate_record

    def counting(*args, **kwargs):
        calls.append(args[0].image_id)
        return real(*args, **kwargs)

    monkeypatch.setattr(catalog, "validate_record", counting)
    monkeypatch.setattr(pipeline, "validate_record", counting, raising=False)
    assert run(capsys, "segment", "--in", write_image(tmp_path))[0] == 0
    assert len(calls) == 1
    manifest = _manifest(tmp_path, ["p1.pgm", "p2.pgm"])
    assert run(capsys, "pipeline", "--manifest", manifest, "--method", "native",
               "--workers", "1")[0] == 0
    assert len(calls) == 3


@pytest.mark.parametrize("corpus", [False, True])
def test_label_empty_after_normalization_fails_the_image(tmp_path, capsys, server, corpus):
    # the mock tagger echoes the vocabulary and the grounder echoes the tags,
    # so a whitespace vocabulary term comes back as a whitespace label
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"endpoints": server.endpoints, "tag_vocabulary": ["   "]}))
    if corpus:
        target = ["--manifest", _manifest(tmp_path, ["p1.pgm"])]
        sidecar = tmp_path / "p1.pgm.segments.json"
    else:
        target = ["--in", write_image(tmp_path)]
        sidecar = tmp_path / "page.pgm.segments.json"
    code, out, err = run(capsys, "pipeline", "--config", str(cfg), "--method", "m2", *target)
    assert code == 2
    assert "empty after normalization" in err
    assert not sidecar.exists()
    if corpus:
        assert "processed=0 failed=1 skipped=0" in out


def test_corpus_isolates_per_image_failures(tmp_path, capsys):
    manifest = _manifest(tmp_path, ["p1.pgm", "p2.pgm"])
    (tmp_path / "p2.pgm").write_bytes(b"P6 broken")
    code, out, err = run(capsys, "pipeline", "--manifest", manifest,
                         "--method", "native")
    assert code == 2
    assert "processed=1 failed=1 skipped=0" in out
    assert "p2.pgm" in err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_corpus_lets_a_programming_error_escape(tmp_path, capsys, monkeypatch, workers):
    # per-image isolation covers the data and backend error families that
    # main maps to exits 2 and 3; a TypeError is a bug, not a failed image
    from treatise import cli

    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(cli, "run_pipeline", broken)
    manifest = _manifest(tmp_path, ["p1.pgm", "p2.pgm"])
    with pytest.raises(TypeError, match="bug"):
        main(["pipeline", "--manifest", manifest, "--method", "native", "--workers", workers])


def test_corpus_worker_that_dies_fails_its_images(tmp_path, capfd, monkeypatch):
    # the patch is forked into the workers; the one that takes p2 ends at once
    from treatise import cli

    real = cli.run_pipeline

    def dying(blob, config, *args, source_path="", **kwargs):
        if source_path.endswith("p2.pgm"):
            os._exit(1)
        return real(blob, config, *args, source_path=source_path, **kwargs)

    monkeypatch.setattr(cli, "run_pipeline", dying)
    manifest = _manifest(tmp_path, ["p1.pgm", "p2.pgm", "p3.pgm"])
    code = main(["pipeline", "--manifest", manifest, "--method", "native", "--workers", "2"])
    out, err = capfd.readouterr()
    assert code == 2
    counts = dict(item.split("=") for item in out.split())
    assert int(counts["processed"]) + int(counts["failed"]) == 3
    assert counts["skipped"] == "0"
    lines = err.splitlines()
    assert f"{tmp_path / 'p2.pgm'}: worker process ended abruptly" in lines
    assert len(lines) == int(counts["failed"])
    assert all(line.endswith(": worker process ended abruptly") for line in lines)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_corpus_page_out_of_memory_is_one_failed_image(tmp_path, capsys, monkeypatch,
                                                       workers):
    # the patch is forked into the workers; only the wider p2 runs out of memory
    from treatise import pipeline

    real = pipeline.watershed

    def greedy(grid, markers):
        if grid.width == 5:
            raise MemoryError
        return real(grid, markers)

    monkeypatch.setattr(pipeline, "watershed", greedy)
    manifest = _manifest(tmp_path, ["p1.pgm", "p2.pgm", "p3.pgm"])
    (tmp_path / "p2.pgm").write_bytes(RIDGE)
    code, out, err = run(capsys, "pipeline", "--manifest", manifest,
                         "--method", "native", "--workers", workers)
    assert (code, out) == (2, "processed=2 failed=1 skipped=0\n")
    assert err == f"{tmp_path / 'p2.pgm'}: out of memory\n"
    assert [os.path.exists(tmp_path / f"p{i}.pgm.segments.json") for i in (1, 2, 3)] \
        == [True, False, True]


def test_segment_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    from treatise import pipeline

    def greedy(grid, markers):
        raise MemoryError

    monkeypatch.setattr(pipeline, "watershed", greedy)
    code, out, err = run(capsys, "segment", "--in", write_image(tmp_path))
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_corpus_pool_that_breaks_while_submitting_fails_the_rest(tmp_path, capsys,
                                                                 monkeypatch):
    from treatise import cli

    class BreaksAfterOne(ProcessPoolExecutor):
        submitted = 0

        def submit(self, fn, path):
            if self.submitted:
                raise BrokenProcessPool("a worker ended")
            self.submitted += 1
            return super().submit(fn, path)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", BreaksAfterOne)
    manifest = _manifest(tmp_path, ["p1.pgm", "p2.pgm", "p3.pgm"])
    code, out, err = run(capsys, "pipeline", "--manifest", manifest,
                         "--method", "native", "--workers", "2")
    assert (code, out) == (2, "processed=1 failed=2 skipped=0\n")
    assert err.splitlines() == [f"{tmp_path / name}: worker process ended abruptly"
                                for name in ("p2.pgm", "p3.pgm")]


def _noise_pgm(side, seed):
    rng = random.Random(seed)
    return make_pgm([[rng.randrange(256) for _ in range(side)] for _ in range(side)])


def test_corpus_output_is_the_same_for_one_worker_or_a_pool(tmp_path, capsys, monkeypatch):
    # small broken image, large good page (submitted first to a pool), broken image
    from treatise import pipeline

    monkeypatch.setattr(pipeline, "utc_timestamp", lambda: "2026-01-01T00:00:00Z")
    names = ["a.pgm", "big.pgm", "c.pgm", "small.pgm"]
    manifest = _manifest(tmp_path, names)
    (tmp_path / "a.pgm").write_bytes(b"P6 broken")
    (tmp_path / "big.pgm").write_bytes(_noise_pgm(48, 1))
    (tmp_path / "c.pgm").write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    runs = []
    for workers in ("1", "2"):
        code, out, err = run(capsys, "pipeline", "--manifest", manifest,
                             "--method", "native", "--workers", workers, "--force")
        sidecars = {n: (tmp_path / sidecar_path(n)).read_bytes()
                    for n in names if (tmp_path / sidecar_path(n)).exists()}
        for path in sidecars:
            (tmp_path / sidecar_path(path)).unlink()
        runs.append((code, out, err, sidecars))
    assert runs[0] == runs[1]
    code, out, err, sidecars = runs[0]
    assert (code, out) == (2, "processed=2 failed=2 skipped=0\n")
    assert [line.split(":")[0] for line in err.splitlines()] == [
        str(tmp_path / "a.pgm"), str(tmp_path / "c.pgm")]
    assert sorted(sidecars) == ["big.pgm", "small.pgm"]


class _RecordingPool(ProcessPoolExecutor):
    """The real pool, noting its size and the order of the paths submitted."""

    made: list = []
    submitted: list = []

    def __init__(self, max_workers, *args, **kwargs):
        self.made.append(max_workers)
        super().__init__(max_workers, *args, **kwargs)

    def submit(self, fn, path):
        self.submitted.append(os.path.basename(path))
        return super().submit(fn, path)


def test_corpus_pool_takes_the_largest_file_first(tmp_path, capsys, monkeypatch):
    from treatise import cli

    monkeypatch.setattr(_RecordingPool, "made", [])
    monkeypatch.setattr(_RecordingPool, "submitted", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    names = ["small.pgm", "missing.pgm", "large.pgm", "mid.pgm", "mid2.pgm"]
    manifest = _manifest(tmp_path, names)
    (tmp_path / "missing.pgm").unlink()
    for name, side in (("large.pgm", 24), ("mid.pgm", 12), ("mid2.pgm", 12)):
        (tmp_path / name).write_bytes(_noise_pgm(side, 2))
    code, out, err = run(capsys, "pipeline", "--manifest", manifest,
                         "--method", "native", "--workers", "8")
    assert code == 2
    assert out == "processed=4 failed=1 skipped=0\n"
    assert err.startswith(f"{tmp_path / 'missing.pgm'}: ")
    assert _RecordingPool.made == [5]
    assert _RecordingPool.submitted == ["large.pgm", "mid.pgm", "mid2.pgm", "small.pgm",
                                        "missing.pgm"]


@pytest.mark.parametrize("case", ["one usable cpu", "one image", "no fork"])
def test_corpus_with_one_worker_makes_no_pool(tmp_path, capsys, monkeypatch, case):
    from treatise import cli

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was made")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    names = ["p1.pgm"] if case == "one image" else ["p1.pgm", "p2.pgm"]
    argv = ["pipeline", "--manifest", _manifest(tmp_path, names), "--method", "native"]
    if case == "one usable cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
    elif case == "one image":
        argv += ["--workers", "4"]
    else:
        monkeypatch.setattr(cli.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        argv += ["--workers", "2"]
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, f"processed={len(names)} failed=0 skipped=0\n")


def test_corpus_backend_failures_exit_3(tmp_path, capsys):
    dead = {s: f"http://127.0.0.1:9/v1/{s}"
            for s in ("segment", "caption", "ground")}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"endpoints": dead}))
    manifest = _manifest(tmp_path, ["p1.pgm"])
    code, out, _ = run(capsys, "pipeline", "--config", str(cfg),
                       "--manifest", manifest, "--method", "m1")
    assert code == 3
    assert "failed=1" in out


@pytest.mark.parametrize("field", ["year_range", "count"])
def test_corpus_manifest_rejects_bools(tmp_path, capsys, field):
    # True == 1, so [true, 1700] would pass as a range and true as one image
    manifest = Path(_manifest(tmp_path, ["p1.pgm"]))
    doc = json.loads(manifest.read_text())
    if field == "year_range":
        doc["year_range"] = [True, 1700]
    else:
        doc["treatises"][0]["count"] = True
    manifest.write_text(json.dumps(doc))
    code, _, err = run(capsys, "pipeline", "--manifest", str(manifest), "--method", "native")
    assert code == 2
    assert field in err
    assert not (tmp_path / "p1.pgm.segments.json").exists()


def test_corpus_bad_manifest(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"treatises": [{"title": "x"}]}))
    assert run(capsys, "pipeline", "--manifest", str(path),
               "--method", "native")[0] == 2


# ------------------------------------------------------------ mock-serve

def test_mock_serve_rejects_bad_fixture_table(tmp_path, capsys):
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps({"nonsense": {}}))
    assert run(capsys, "mock-serve", "--fixtures", str(path))[0] == 2
    path.write_text("{broken")
    assert run(capsys, "mock-serve", "--fixtures", str(path))[0] == 2


def test_mock_serve_exits_on_interrupt_with_a_connection_kept_alive():
    import http.client
    import signal

    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.Popen([sys.executable, "-m", "treatise.cli", "mock-serve", "--port", "0"],
                            stderr=subprocess.PIPE, env=env)
    try:
        # stderr names one endpoint per line: "<stage>: http://host:port/v1/<stage>"
        host, path = proc.stderr.readline().decode().split("//", 1)[1].strip().split("/", 1)
        conn = http.client.HTTPConnection(host, timeout=10)
        conn.request("POST", "/" + path, body=b"{}")
        reply = conn.getresponse()
        reply.read()
        assert not reply.will_close  # its handler thread waits for the next request
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == 0
        conn.close()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


# ------------------------------------------------------------ numeric flag ranges

@pytest.mark.parametrize("argv, flag", [
    (["mock-serve", "--port", "-1"], "port"),
    (["mock-serve", "--port", "70000"], "port"),
    (["search", "--index", "idx.json", "--query", "keel", "--k", "0"], "k"),
    (["search", "--index", "idx.json", "--query", "keel", "--k", "-1"], "k"),
    (["eval", "--pred", "a.json", "--truth", "b.json", "--iou-threshold", "nan"], "iou-threshold"),
    (["eval", "--pred", "a.json", "--truth", "b.json", "--iou-threshold", "-1"], "iou-threshold"),
    (["eval", "--pred", "a.json", "--truth", "b.json", "--iou-threshold", "1.5"], "iou-threshold"),
    (["segment", "--in", "p1.pgm", "--h", "-5"], "h"),
    (["pipeline", "--in", "p1.pgm", "--method", "native", "--max-tags", "0"], "max-tags"),
    (["pipeline", "--manifest", "manifest.json", "--method", "native", "--workers", "0"],
     "workers"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_numeric_flag_out_of_range_is_a_usage_error(tmp_path, capsys, argv, flag):
    _manifest(tmp_path, ["p1.pgm"])
    human_sidecar(tmp_path, "a.json", "a" * 64, ["keel"], source="tagger")
    human_sidecar(tmp_path, "b.json", "a" * 64, ["keel"])
    run(capsys, "index", "--index", "idx.json", "a.json")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith(f"error: --{flag} must be ")
    assert not (tmp_path / "p1.pgm.segments.json").exists()


def test_segment_takes_an_h_too_large_for_int64(tmp_path, capsys):
    image = write_image(tmp_path)
    huge = str(10 ** 20)
    assert run(capsys, "segment", "--in", image, "--h", "256", "--out", "ref.json")[0] == 0
    assert run(capsys, "segment", "--in", image, "--h", huge, "--out", "flag.json")[0] == 0
    (tmp_path / "cfg.json").write_text(f'{{"h": {huge}}}')
    assert run(capsys, "segment", "--in", image, "--config", "cfg.json",
               "--out", "config.json")[0] == 0
    ref = load_sidecar(tmp_path / "ref.json").segments
    assert load_sidecar(tmp_path / "flag.json").segments == ref
    assert load_sidecar(tmp_path / "config.json").segments == ref


# ------------------------------------------------------------ README examples

def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.strip()]
    assert commands and all(argv[0] == "treatise" for argv in commands)
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {' '.join(argv)}")


# ------------------------------------------------------------ input files

def _input_files(tmp_path):
    """A valid file of each fuzzed input kind, by kind, and an image."""
    image = write_image(tmp_path)
    _manifest(tmp_path, ["p1.pgm"])
    human_sidecar(tmp_path, "sidecar.json", "a" * 64, ["quilha"], source="tagger")
    human_sidecar(tmp_path, "truth.json", "a" * 64, ["keel"])
    (tmp_path / "cfg.json").write_text('{"h": 1, "relief": "gradient"}')
    main(["index", "--index", "idx.json", "sidecar.json"])
    files = {"sidecar": "sidecar.json", "truth": "truth.json", "manifest": "manifest.json",
             "glossary": GLOSSARY, "ontology": ONTOLOGY, "config": "cfg.json",
             "snapshot": "idx.json"}
    return {kind: Path(path).read_bytes() for kind, path in files.items()}, image


def _argv(reader, path, image):
    """A command that reads `path` through `reader` and no other input that can fail."""
    return {
        "index": ["index", "--force", "--index", "out-idx.json", path],
        "enrich": ["enrich", "--in", path, "--glossary", GLOSSARY, "--ontology", ONTOLOGY,
                   "--out", "out.json"],
        "eval --pred": ["eval", "--pred", path, "--truth", "truth.json"],
        "overlay": ["overlay", "--in", image, "--sidecar", path, "--out", "out.pgm"],
        "eval --truth": ["eval", "--pred", "sidecar.json", "--truth", path],
        "pipeline": ["pipeline", "--manifest", path, "--method", "native", "--workers", "1"],
        "vocab": ["vocab", "--glossary", path, "--out", "seed.json"],
        "search --expand": ["search", "--index", "idx.json", "--query", "keel", "--expand",
                            "--glossary", path],
        "enrich --ontology": ["enrich", "--in", "sidecar.json", "--glossary", GLOSSARY,
                              "--ontology", path, "--out", "out.json"],
        "mock-serve": ["mock-serve", "--fixtures", path],
        "segment": ["segment", "--config", path, "--in", image, "--out", "out.json"],
        "search": ["search", "--index", path, "--query", "quilha keel"],
    }[reader]


@pytest.mark.parametrize("data", [b"\xff", b"[1,", b"[]", b"[" * 100000],
                         ids=["not-utf8", "truncated", "list", "deep"])
@pytest.mark.parametrize("reader, kind", [
    ("index", "sidecar"), ("enrich", "sidecar"), ("eval --pred", "sidecar"),
    ("overlay", "sidecar"), ("eval --truth", "truth"), ("pipeline", "manifest"),
    ("vocab", "glossary"), ("enrich --ontology", "ontology"), ("mock-serve", "fixtures"),
    ("segment", "config"),
])
def test_an_unreadable_input_file_is_named(tmp_path, capsys, reader, kind, data):
    _, image = _input_files(tmp_path)
    bad = tmp_path / f"bad-{kind}.json"
    bad.write_bytes(data)
    capsys.readouterr()
    code, out, err = run(capsys, *_argv(reader, str(bad), image))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {kind} {bad}: ")
    if data.startswith(b"[["):
        assert "invalid JSON: maximum recursion depth exceeded" in err


def _mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for pos, op, byte in edits:
        i = pos % (len(out) + 1)
        if op == "insert":
            out.insert(i, byte)
        elif i < len(out):
            if op == "replace":
                out[i] = byte
            else:
                del out[i]
    return bytes(out)


# each fuzzed kind: the command that reads it, and the package function it hands the file to
_FUZZED = {
    "sidecar": ("index", load_sidecar),
    "truth": ("eval --truth", lambda path: load_truth(path.read_bytes())),
    "manifest": ("pipeline", lambda path: load_manifest(path.read_bytes())),
    "glossary": ("search --expand", lambda path: load_glossary(path.read_bytes())),
    "ontology": ("enrich --ontology", lambda path: load_ontology(path.read_bytes())),
    "config": ("segment", lambda path: _load_config(argparse.Namespace(config=str(path)))),
    "snapshot": ("search", load_index),
}

_edits = st.lists(st.tuples(st.integers(0, 1 << 16),
                            st.sampled_from(["replace", "insert", "delete"]),
                            st.sampled_from(list(b'{}[]",:-.019aeflnrstu \xff'))
                            | st.integers(0, 255)),
                  min_size=1, max_size=4)


@pytest.mark.parametrize("kind", sorted(_FUZZED))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=_edits)
def test_mutated_input_files_exit_0_or_2_with_one_line(tmp_path, capsys, kind, edits):
    good, image = _input_files(tmp_path)
    reader, load = _FUZZED[kind]
    path = tmp_path / f"fuzz-{kind}.json"
    path.write_bytes(_mutate(good[kind], edits))
    try:
        load(path)
        rejected = False
    except ValueError:
        rejected = True
    capsys.readouterr()
    code, _, err = run(capsys, *_argv(reader, str(path), image))
    assert code in (0, 2)
    assert "Traceback" not in err and err.count("\n") <= 1
    if rejected:
        assert code == 2 and err.count("\n") == 1
        if kind != "snapshot":  # `search` reads its snapshot through retrieval.load_index
            assert err.startswith(f"error: {kind} {path}: ")


# ------------------------------------------------------------ index in workers

_WORDS = ["keel", "sternpost", "frame", "knee", "scarf", "rib", "quilha"]


def _labeled(tmp_path, prefix, n, seed):
    """n one-segment sidecars with 1 to 6 seeded labels each, so file sizes
    (and the pool's largest-first order) differ from the argument order."""
    rng = random.Random(seed)
    return [human_sidecar(tmp_path, f"{prefix}{i:02d}.json", f"{i:064x}",
                          rng.choices(_WORDS, k=rng.randint(1, 6)), source="tagger")
            for i in range(n)]


class _SizedPool(ProcessPoolExecutor):
    """The real pool, noting its size."""

    made: list = []

    def __init__(self, max_workers, *args, **kwargs):
        self.made.append(max_workers)
        super().__init__(max_workers, *args, **kwargs)


@pytest.fixture()
def sized_pool(monkeypatch):
    from treatise import cli

    monkeypatch.setattr(_SizedPool, "made", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _SizedPool)
    return _SizedPool.made


def _with_cpus(monkeypatch, cpus, sidecars_per_worker=1):
    """`cpus` usable CPUs; a pool for index calls of at least
    `sidecars_per_worker` sidecars a worker, so small inputs start one."""
    from treatise import cli

    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "_SIDECARS_PER_WORKER", sidecars_per_worker)


def test_index_is_the_same_for_one_worker_or_a_pool(tmp_path, capsys, monkeypatch,
                                                    sized_pool):
    sidecars = _labeled(tmp_path, "s", 40, 1)
    changed = _labeled(tmp_path, "u", 12, 2)  # the first 12 images, labelled anew
    # both sidecars of an image, the larger one last: it wins, though a
    # pool reads it first
    both = [path for pair in zip(sidecars, changed) for path in sorted(pair, key=os.path.getsize)]
    idx = tmp_path / "idx.json"
    runs = []
    for cpus in (1, 2):
        _with_cpus(monkeypatch, cpus)
        if idx.exists():
            idx.unlink()
        outputs = []
        for argv in (["--force", *sidecars],
                     [*changed[::2], *sidecars[30:]],
                     ["--force", sidecars[20], *both, sidecars[20]]):
            outputs.append((*run(capsys, "index", "--index", str(idx), *argv),
                            idx.read_bytes()))
        runs.append(outputs)
        assert not multiprocessing.active_children()
    assert runs[0] == runs[1]
    assert [out[:2] for out in runs[0]] == [(0, "")] * 3
    assert sized_pool == [2, 2, 2]


def test_index_starts_a_pool_only_for_enough_sidecars(tmp_path, capsys, monkeypatch,
                                                      sized_pool):
    from treatise import cli

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(cli, "_SIDECARS_PER_WORKER", 10)
    sidecars = _labeled(tmp_path, "s", 30, 3)
    idx = str(tmp_path / "idx.json")
    for n in (1, 19, 20, 30):
        assert run(capsys, "index", "--index", idx, "--force", *sidecars[:n])[0] == 0
    assert sized_pool == [2, 3]  # none below 2 workers' worth; 30 sidecars fill 3


def _spoil(path, fault):
    if fault == "missing":
        os.unlink(path)
    else:
        with open(path, "w") as fh:
            fh.write('{"schema_version": 1}')


@pytest.mark.parametrize("fault", ["bad sidecar", "missing"])
def test_a_bad_sidecar_fails_a_pool_as_it_fails_one_worker(tmp_path, capsys, monkeypatch,
                                                           fault):
    sidecars = _labeled(tmp_path, "s", 40, 5)
    idx = tmp_path / "idx.json"
    idx.write_bytes(b"earlier output\n")
    # the first fault in argument order is the one reported, though a pool
    # reads the later, larger one first
    _spoil(sidecars[25], fault)
    with open(sidecars[33], "w") as fh:
        fh.write("[" + " " * 50000 + "]")
    runs = []
    for cpus in (1, 2):
        _with_cpus(monkeypatch, cpus)
        runs.append(run(capsys, "index", "--index", str(idx), "--force", *sidecars))
        assert idx.read_bytes() == b"earlier output\n"
        assert not multiprocessing.active_children()
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith("error: ") and sidecars[25] in err


def test_a_worker_that_dies_fails_the_index(tmp_path, capsys, monkeypatch):
    # the patch is forked into the workers; the one that takes image 7 ends at once
    from treatise import retrieval

    real = retrieval.record_docs

    def dying(record):
        if record.image_id == f"{7:064x}":
            os._exit(1)
        return real(record)

    monkeypatch.setattr(retrieval, "record_docs", dying)
    _with_cpus(monkeypatch, 2)
    idx = tmp_path / "idx.json"
    code, out, err = run(capsys, "index", "--index", str(idx), *_labeled(tmp_path, "s", 20, 7))
    assert (code, out, err) == (2, "", "error: worker process ended abruptly\n")
    assert not idx.exists()
    assert not multiprocessing.active_children()


def test_search_loads_no_pool_machinery(tmp_path, capsys):
    idx = str(tmp_path / "idx.json")
    assert run(capsys, "index", "--index", idx,
               human_sidecar(tmp_path, "a.json", "a" * 64, ["keel"]))[0] == 0
    script = ("import sys\n"
              "from treatise.cli import main\n"
              f"assert main(['search', '--index', {idx!r}, '--query', 'keel']) == 0\n"
              "print(sorted({'multiprocessing', 'concurrent.futures.process'}"
              " & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
