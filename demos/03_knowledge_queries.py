"""Query the packaged glossary and concept graph.

The glossary maps surface forms in several languages to shared entries; the
ontology relates concepts by is_a, part_of, and related_to, and links some
of them to glossary entries, which is how a label gets its concept. Run with:

    python3 demos/03_knowledge_queries.py
"""

from treatise import fixtures, lexicon
from treatise.catalog import LabelAssignment
from treatise.evaluation import label_score
from treatise.ontology import ancestors, related
from treatise.pipeline import enrich_labels


def main():
    glossary = fixtures.glossary()
    graph = fixtures.ontology()

    print("glossary entries:", ", ".join(sorted(glossary.entries)))

    hits = lexicon.lookup(glossary, "quilha")
    print(f'\n"quilha" resolves to entries {sorted(hits)}')
    print("  all surface forms:",
          ", ".join(sorted(lexicon.expand_terms(glossary, ["quilha"]))))
    print("  with related entries:",
          ", ".join(sorted(lexicon.expand_terms(glossary, ["quilha"],
                                                include_related=True))))

    print("\nconcept facts for RiderFrame:")
    print("  ancestors:", ancestors(graph, "RiderFrame"))
    print("  related:", sorted(related(graph, "RiderFrame")))

    # a label whose text hits a glossary entry linked to a concept gets
    # that concept and the entry's definition
    print('\nglossary entry "keel" links to concepts', graph.concepts_for_gloss("keel"))
    labels = {1: (LabelAssignment(text="quilha", source="human"),)}
    enriched = enrich_labels(labels, glossary, graph)[1][0]
    print(f'  the label "quilha" gets concept {enriched.concept_id}'
          f" and definition {enriched.definition!r}")

    frames = fixtures.frames_glossary()
    print("\nlabel agreement scores (1 exact, 0.5 subsumed, 0.25 related):")
    for a, b in [("keel", "quilha"), ("floor timber", "frame"),
                 ("rider frame", "frame"), ("keel", "scarf")]:
        use = frames if "frame" in a or "frame" in b else glossary
        print(f"  {a!r} vs {b!r}: {label_score(a, b, use, graph)}")


if __name__ == "__main__":
    main()
