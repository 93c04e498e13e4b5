"""Run the labeling pipeline end to end against an in-process mock server.

The mock answers every wire endpoint deterministically (same request bytes,
same response), which makes pipeline behavior reproducible without any model
behind it. This script builds a definition vocabulary, then labels one page
with three different method configurations. Run with:

    python3 demos/04_pipeline_with_mock_backends.py
"""

import tempfile
from pathlib import Path

from treatise import fixtures
from treatise.catalog import record_to_obj
from treatise.mockserver import MockBackendServer
from treatise.pipeline import (
    PipelineConfig,
    build_label_vocabulary,
    run_pipeline,
)
from treatise.raster import ImageGrid, encode_pgm

PAGE = encode_pgm(ImageGrid.from_list(4, 4, [
    0, 0, 9, 9,
    0, 0, 9, 9,
    5, 5, 7, 7,
    5, 5, 7, 7,
]))


def describe(record, title):
    print(f"\n--- {title} ---")
    prov = record.provenance
    print(f"method={prov.method} degraded={prov.degraded}")
    if record.image_caption:
        print("caption:", record.image_caption)
    for sid, items in sorted(record.assignments.items()):
        for a in items:
            print(f"  segment {sid}: {a.text!r} ({a.source}, {a.confidence})")
    print(f"{len(prov.prompt_hashes)} backend request hashes recorded")


def main():
    with MockBackendServer() as server, \
            tempfile.TemporaryDirectory(prefix="treatise-demo-") as tmp:
        print("mock endpoints:")
        for stage, url in server.endpoints.items():
            print(f"  {stage}: {url}")

        # one definition request per glossary entry, cached for next time
        cache = Path(tmp) / "seed.json"
        seed = build_label_vocabulary(
            fixtures.glossary(),
            definer_url=server.endpoints["define"],
            cache_path=cache,
        )
        print(f"\nvocabulary seed: {len(seed.terms)} terms -> {cache}")
        for term in seed.terms:
            print(f"  {term}: {seed.entries[term]}")
        build_label_vocabulary(fixtures.glossary(), cache_path=cache)
        print("second build was served from the cache (no definer needed)")

        caption_cfg = PipelineConfig(method="M1", endpoints=server.endpoints)
        describe(run_pipeline(PAGE, caption_cfg), "caption-derived labels")

        closed_cfg = PipelineConfig(method="M4", endpoints=server.endpoints,
                                    vocabulary_path=str(cache))
        record = run_pipeline(PAGE, closed_cfg, fixtures.glossary(),
                              fixtures.ontology())
        describe(record, "closed-vocabulary tagging with enrichment")
        for sid, items in sorted(record.assignments.items()):
            for a in items:
                if a.concept_id:
                    print(f"  {a.text!r} linked to concept {a.concept_id}")

        degraded_cfg = PipelineConfig(method="M4b", endpoints=server.endpoints,
                                      vocabulary_path=str(cache), max_tags=2)
        describe(run_pipeline(PAGE, degraded_cfg),
                 "definition-grounding fallback (flagged degraded)")

        # segmentation order is configuration, not behavior: records match
        first = record_to_obj(run_pipeline(PAGE, caption_cfg))
        other = PipelineConfig(method="M1", endpoints=server.endpoints,
                               segmentation_stage="after_labeling")
        second = record_to_obj(run_pipeline(PAGE, other))
        first.pop("provenance"), second.pop("provenance")
        print("\nsegment-first and segment-last records equal:",
              first == second)


if __name__ == "__main__":
    main()
