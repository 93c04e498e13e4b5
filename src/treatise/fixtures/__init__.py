"""Packaged data: a small glossary and ontology neighborhood for wooden-ship
parts, plus per-language stopword lists. These are working samples, not the
full curated resources."""

from __future__ import annotations

from importlib import resources

from .. import lexicon
from .. import ontology as onto

LANGUAGES = ("en", "pt", "fr", "it", "nl", "la")


def read_bytes(name: str) -> bytes:
    return (resources.files(__package__) / name).read_bytes()


def glossary() -> "lexicon.Glossary":
    return lexicon.load_glossary(read_bytes("glossary_fig4.json"))


def frames_glossary() -> "lexicon.Glossary":
    """Frame-family entries matching the frame concepts in the ontology
    sample; kept separate from the hull-part glossary."""
    return lexicon.load_glossary(read_bytes("glossary_frames.json"))


def ontology():
    return onto.load_ontology(read_bytes("ontology_fig6.json"))


def stopwords(language: str) -> frozenset[str]:
    if language not in LANGUAGES:
        raise KeyError(f"no stopword list for language {language!r}")
    return lexicon.load_stopwords(read_bytes(f"stopwords_{language}.txt"))
