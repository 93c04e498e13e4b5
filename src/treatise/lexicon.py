"""Multilingual nautical glossary: normalization, lookup, and term expansion.

The glossary file format is JSON:

    {"entries": {"<id>": {"definitions": {"en": "..."},
                          "variants": {"pt": ["..."]},
                          "related": ["<id>"]}}}

Entry ids are canonical English headwords, lowercase. The variant index maps
normalized variants (any language) back to entry ids.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field

from . import parse_json

_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

# normalize_term strips "-es" only after the stems that take it (glasses,
# boxes, branches); elsewhere only the "-s" goes (frames -> frame, houses ->
# house). Stripping "-es" after any "s" would not be idempotent: houses
# would give hous, then hou.
_SIBILANT_ES = ("sses", "xes", "zes", "ches", "shes")


class GlossaryFormatError(ValueError):
    """Raised when a glossary file violates the format or its invariants."""


def _strip_plural(word: str) -> str:
    if word.endswith(_SIBILANT_ES) and len(word) - 2 >= 3:
        return word[:-2]
    if word.endswith("s") and not word.endswith("ss") and len(word) - 1 >= 3:
        return word[:-1]
    return word


def normalize_term(text: str) -> str:
    """Canonical token form: NFKD, combining marks stripped, lowercase,
    whitespace collapsed, one trailing plural suffix removed per word (never
    shrinking a word below 3 letters). Idempotent."""
    t = text
    if not t.isascii():  # both steps leave ASCII as it is
        t = unicodedata.normalize("NFKD", t)
        t = "".join(ch for ch in t if not unicodedata.combining(ch))
    t = " ".join(t.lower().split())
    if not t:
        return ""
    return " ".join(_strip_plural(w) for w in t.split(" "))


@dataclass(frozen=True)
class GlossEntry:
    id: str
    definitions: dict[str, str] = field(default_factory=dict)
    variants: dict[str, tuple[str, ...]] = field(default_factory=dict)
    related_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class Glossary:
    entries: dict[str, GlossEntry]
    variant_index: dict[str, frozenset[str]]

    def __len__(self) -> int:
        return len(self.entries)

    def fingerprint(self) -> dict:
        """Stable JSON-able view of the full content, for cache keying."""
        return {
            eid: {
                "definitions": dict(sorted(e.definitions.items())),
                "variants": {k: list(v) for k, v in sorted(e.variants.items())},
                "related": list(e.related_ids),
            }
            for eid, e in sorted(self.entries.items())
        }


def _pairs_no_dup(pairs):
    seen = set()
    for k, _ in pairs:
        if k in seen:
            raise GlossaryFormatError(f"duplicate id {k!r}")
        seen.add(k)
    return dict(pairs)


def load_glossary(data: bytes | str) -> Glossary:
    """Parse and validate a glossary file, building the variant index."""
    doc = parse_json(data, GlossaryFormatError, object_pairs_hook=_pairs_no_dup)
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), dict):
        raise GlossaryFormatError('top level must be {"entries": {...}}')
    entries: dict[str, GlossEntry] = {}
    for eid, raw in doc["entries"].items():
        if not isinstance(eid, str) or not eid.strip():
            raise GlossaryFormatError("entry id must be a non-empty string")
        if eid != eid.lower() or eid != eid.strip():
            raise GlossaryFormatError(f"entry id {eid!r} must be lowercase and trimmed")
        if not isinstance(raw, dict):
            raise GlossaryFormatError(f"entry {eid!r} must be an object")
        definitions = raw.get("definitions", {})
        variants = raw.get("variants", {})
        related = raw.get("related", [])
        if not isinstance(definitions, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in definitions.items()
        ):
            raise GlossaryFormatError(f"entry {eid!r}: definitions must map language to text")
        if not isinstance(variants, dict):
            raise GlossaryFormatError(f"entry {eid!r}: variants must map language to a list")
        vmap: dict[str, tuple[str, ...]] = {}
        for lang, terms in variants.items():
            if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
                raise GlossaryFormatError(f"entry {eid!r}: variants[{lang!r}] must be strings")
            for t in terms:
                if not normalize_term(t):
                    raise GlossaryFormatError(
                        f"entry {eid!r}: variant {t!r} normalizes to an empty string"
                    )
            vmap[lang] = tuple(terms)
        if not isinstance(related, list) or not all(isinstance(r, str) for r in related):
            raise GlossaryFormatError(f"entry {eid!r}: related must be a list of ids")
        entries[eid] = GlossEntry(
            id=eid, definitions=dict(definitions), variants=vmap, related_ids=tuple(related)
        )
    for eid, entry in entries.items():
        for rid in entry.related_ids:
            if rid not in entries:
                raise GlossaryFormatError(f"entry {eid!r}: related id {rid!r} does not exist")
    index: dict[str, set[str]] = {}
    for eid, entry in entries.items():
        for terms in entry.variants.values():
            for term in terms:
                index.setdefault(normalize_term(term), set()).add(eid)
    return Glossary(
        entries=entries,
        variant_index={k: frozenset(v) for k, v in index.items()},
    )


def lookup(glossary: Glossary, term: str) -> set[str]:
    """Entry ids whose variants (any language) normalize to the same token
    string as the query term. Empty set on a miss."""
    return set(glossary.variant_index.get(normalize_term(term), frozenset()))


def load_stopwords(data: bytes | str) -> frozenset[str]:
    """One token per line; tokens are stored in normalized form so membership
    checks happen in normalized space."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    out = set()
    for line in data.splitlines():
        tok = normalize_term(line.strip())
        if tok:
            out.add(tok)
    return frozenset(out)


def tokenize(text: str) -> list[str]:
    """Split on non-letter boundaries and normalize each token; empty results
    are dropped."""
    toks = []
    for raw in _WORD_RE.findall(text):
        n = normalize_term(raw)
        if n:
            toks.append(n)
    return toks


def expand_terms(glossary: Glossary, terms, include_related: bool = False) -> set[str]:
    """Expansion set: the normalized inputs, plus every variant (all
    languages) of each entry hit by lookup, plus, when include_related is on,
    the variants of related entries one hop away. Always a superset of the
    normalized inputs."""
    out: set[str] = set()
    hit_entries: set[str] = set()
    for term in terms:
        n = normalize_term(term)
        if not n:
            continue
        out.add(n)
        hit_entries |= lookup(glossary, n)
    expand_from = set(hit_entries)
    if include_related:
        for eid in hit_entries:
            expand_from.update(glossary.entries[eid].related_ids)
    for eid in expand_from:
        for variants in glossary.entries[eid].variants.values():
            for v in variants:
                out.add(normalize_term(v))
    return out
