"""Index labeled pages and search them, with and without query expansion.

Each labeled page contributes one document per segment plus one page-level
document; scoring is BM25 over normalized tokens. Expansion rewrites the
query through the glossary (surface forms in any language) and optionally
one hop of ontology context. Run with:

    python3 demos/05_search_the_corpus.py
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from treatise import fixtures
from treatise.catalog import LabelAssignment
from treatise.pipeline import PipelineConfig, run_pipeline
from treatise.raster import ImageGrid, encode_pgm
from treatise.retrieval import (
    Index,
    expand_query,
    index_record,
    load_index,
    save_index,
    search,
)


def labeled_page(shade, labels, caption=None):
    """Segment a synthetic page natively, then attach human labels to its
    first segment."""
    flat = [shade, shade, 9, 9, shade, shade, 9, 9, 5, 5, 7, 7, 5, 5, 7, 7]
    blob = encode_pgm(ImageGrid.from_list(4, 4, flat))
    record = run_pipeline(blob, PipelineConfig(method="native"))
    marks = tuple(LabelAssignment(text=t, source="human") for t in labels)
    return replace(record, assignments={record.segments[0].id: marks},
                   image_caption=caption)


def show(title, hits):
    print(f"\n{title}")
    if not hits:
        print("  (no matches)")
    for rank, hit in enumerate(hits, start=1):
        # a segment's doc id is "<image id>#<segment id>"; the page's is the image id
        image_id, _, segment_id = hit.doc_id.partition("#")
        where = f"segment {segment_id}" if segment_id else "whole page"
        print(f"  {rank}. {image_id[:12]}... ({where})  score={hit.score:.3f}")


def main():
    glossary = fixtures.glossary()
    graph = fixtures.ontology()

    index = Index()
    pages = [
        labeled_page(0, ["keel"], caption="the keel laid along the ways"),
        labeled_page(1, ["sternpost", "heel"]),
        labeled_page(2, ["scarf"]),
    ]
    for record in pages:
        index_record(index, record)
    print(f"indexed {len(index.docs)} documents from {len(pages)} pages")

    # raw Portuguese query misses an English-labeled corpus
    show('raw query "quilha"', search(index, expand_query(["quilha"])))

    expanded = expand_query(["quilha"], glossary=glossary)
    print("\nexpansion adds:", ", ".join(sorted(expanded.expanded)))
    show('expanded query "quilha"', search(index, expanded))

    wide = expand_query(["quilha"], glossary=glossary, ontology=graph, hops=1)
    show("one ontology hop wider", search(index, wide, kind="image"))

    # snapshots roundtrip exactly
    with tempfile.TemporaryDirectory(prefix="treatise-demo-") as tmp:
        path = Path(tmp) / "index.json"
        save_index(index, path)
        assert load_index(path) == index
        print(f"\nsnapshot saved and reloaded identically: {path}")


if __name__ == "__main__":
    main()
