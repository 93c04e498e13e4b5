"""Concept graph for ship components: is-a hierarchy (a DAG), part-of and
related-to edges, and spatial zones.

File format:

    {"roots": ["HullComponent", ...],
     "concepts": {"<id>": {"label": "...", "is_a": [...], "part_of": [...],
                           "related_to": [...], "zone": "stern",
                           "gloss_id": "..."}}}

Zones are one of bow, stern, keel, bottom, deck, unspecified. The loader
checks zone and part_of but nothing reasons over them; related_to is treated
as untyped and symmetric.
"""

from __future__ import annotations

import graphlib
from collections import deque
from dataclasses import dataclass, field

from . import parse_json

ZONES = ("bow", "stern", "keel", "bottom", "deck", "unspecified")


class OntologyFormatError(ValueError):
    """Raised when an ontology file violates the format or its invariants."""


class CycleError(OntologyFormatError):
    """The is_a relation contains a cycle; offending ids are in .cycle."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("is_a cycle through: " + ", ".join(self.cycle))


class UnknownConceptError(KeyError):
    pass


@dataclass(frozen=True)
class Concept:
    id: str
    label: str
    is_a: tuple[str, ...] = ()
    part_of: tuple[str, ...] = ()
    related_to: tuple[str, ...] = ()
    zone: str = "unspecified"
    gloss_id: str | None = None


@dataclass(frozen=True)
class Ontology:
    concepts: dict[str, Concept]
    roots: tuple[str, ...]
    _related: dict[str, frozenset[str]] = field(repr=False, default_factory=dict)
    _by_gloss: dict[str, tuple[str, ...]] = field(repr=False, default_factory=dict)

    def __len__(self) -> int:
        return len(self.concepts)

    def concepts_for_gloss(self, gloss_id: str) -> tuple[str, ...]:
        """Concept ids linked to a glossary entry, sorted."""
        return self._by_gloss.get(gloss_id, ())


def load_ontology(data: bytes | str) -> Ontology:
    """Parse, validate references, and reject any is_a cycle eagerly."""
    doc = parse_json(data, OntologyFormatError)
    if not isinstance(doc, dict) or not isinstance(doc.get("concepts"), dict):
        raise OntologyFormatError('top level must be {"roots": [...], "concepts": {...}}')
    raw_roots = doc.get("roots", [])
    if not isinstance(raw_roots, list) or not all(isinstance(r, str) for r in raw_roots):
        raise OntologyFormatError("roots must be a list of concept ids")

    concepts: dict[str, Concept] = {}
    for cid, raw in doc["concepts"].items():
        if not isinstance(cid, str) or not cid:
            raise OntologyFormatError("concept id must be a non-empty string")
        if not isinstance(raw, dict):
            raise OntologyFormatError(f"concept {cid!r} must be an object")
        zone = raw.get("zone", "unspecified")
        if zone not in ZONES:
            raise OntologyFormatError(f"concept {cid!r}: unknown zone {zone!r}")
        label = raw.get("label", cid)
        if not isinstance(label, str):
            raise OntologyFormatError(f"concept {cid!r}: label must be a string")
        gloss_id = raw.get("gloss_id")
        if gloss_id is not None and not isinstance(gloss_id, str):
            raise OntologyFormatError(f"concept {cid!r}: gloss_id must be a string")
        edges = {}
        for key in ("is_a", "part_of", "related_to"):
            val = raw.get(key, [])
            if not isinstance(val, list) or not all(isinstance(v, str) for v in val):
                raise OntologyFormatError(f"concept {cid!r}: {key} must be a list of ids")
            edges[key] = tuple(val)
        concepts[cid] = Concept(
            id=cid,
            label=label,
            is_a=edges["is_a"],
            part_of=edges["part_of"],
            related_to=edges["related_to"],
            zone=zone,
            gloss_id=gloss_id,
        )

    for cid, c in concepts.items():
        for kind in ("is_a", "part_of", "related_to"):
            for ref in getattr(c, kind):
                if ref not in concepts:
                    raise OntologyFormatError(
                        f"concept {cid!r}: {kind} reference {ref!r} does not exist")
    for r in raw_roots:
        if r not in concepts:
            raise OntologyFormatError(f"root {r!r} does not exist")

    try:
        graphlib.TopologicalSorter({cid: c.is_a for cid, c in concepts.items()}).prepare()
    except graphlib.CycleError as exc:
        # graphlib walks the cycle against is_a and repeats its first node last
        raise CycleError(exc.args[1][:0:-1]) from None

    related: dict[str, set[str]] = {cid: set(c.related_to) for cid, c in concepts.items()}
    for cid, c in concepts.items():
        for other in c.related_to:
            related[other].add(cid)
    by_gloss: dict[str, list[str]] = {}
    for cid, c in concepts.items():
        if c.gloss_id:
            by_gloss.setdefault(c.gloss_id, []).append(cid)
    return Ontology(
        concepts=concepts,
        roots=tuple(raw_roots),
        _related={k: frozenset(v) for k, v in related.items()},
        _by_gloss={k: tuple(sorted(v)) for k, v in by_gloss.items()},
    )


def _get(ontology: Ontology, cid: str) -> Concept:
    try:
        return ontology.concepts[cid]
    except KeyError:
        raise UnknownConceptError(cid) from None


def ancestors(ontology: Ontology, cid: str) -> list[str]:
    """Transitive is_a closure in BFS order, deduplicated, self excluded."""
    _get(ontology, cid)
    seen = {cid}
    order: list[str] = []
    queue = deque([cid])
    while queue:
        node = queue.popleft()
        for parent in ontology.concepts[node].is_a:
            if parent not in seen:
                seen.add(parent)
                order.append(parent)
                queue.append(parent)
    return order


def related(ontology: Ontology, cid: str) -> set[str]:
    """One-hop symmetric related_to closure: b is related to a if either
    of them lists the other."""
    _get(ontology, cid)
    return set(ontology._related.get(cid, frozenset()))

