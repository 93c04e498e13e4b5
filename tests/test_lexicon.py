import json
import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from treatise import fixtures
from treatise.lexicon import (
    GlossaryFormatError,
    expand_terms,
    load_glossary,
    load_stopwords,
    lookup,
    normalize_term,
    tokenize,
)


class TestNormalize:
    def test_casefold(self):
        assert normalize_term("Quilha") == "quilha"

    def test_plural_strip(self):
        assert normalize_term("Frames") == "frame"

    def test_diacritics_stripped(self):
        assert normalize_term("  Côdaste ") == "codaste"

    def test_matches_independent_unicode_reference(self):
        # independent NFKD + mark-strip path in the oracle module
        for term in ("Côdaste", "Épave", "ANCORAS", "cavêrnas", "STern"):
            assert normalize_term(term) == " ".join(
                oracles._normalize_word(w) for w in term.split())

    def test_whitespace_collapse(self):
        assert normalize_term("stern \t knee") == "stern knee"

    def test_empty(self):
        assert normalize_term("") == ""
        assert normalize_term("   ") == ""

    def test_never_below_three_letters(self):
        assert normalize_term("as") == "as"
        assert normalize_term("is") == "is"
        assert normalize_term("bus") == "bus"

    def test_sibilant_plurals(self):
        assert normalize_term("boxes") == "box"
        assert normalize_term("glasses") == "glass"
        assert normalize_term("glass") == "glass"
        assert normalize_term("branches") == "branch"

    def test_double_s_never_stripped(self):
        # "ss" endings are not plural ("glass", "mass"); strip nothing
        assert normalize_term("keelss") == "keelss"
        assert normalize_term("mass") == "mass"

    def test_suffix_rules_are_pattern_based(self):
        # "-es" goes only after ss/x/z/ch/sh; any other "-ses" loses just
        # the "s", which keeps the rule idempotent
        assert normalize_term("houses") == "house"
        assert normalize_term("house") == "house"

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=30))
    def test_idempotent(self, text):
        once = normalize_term(text)
        assert normalize_term(once) == once

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyzâéôçÃ ŒS -", max_size=24))
    def test_matches_word_oracle(self, text):
        expect = " ".join(
            w for w in (oracles._normalize_word(t) for t in
                        " ".join(text.lower().split()).split(" ")) if w is not None)
        # oracle path works per pre-collapsed word; both must agree
        collapsed = " ".join(text.split())
        if collapsed:
            got = normalize_term(collapsed)
            ref = " ".join(oracles._normalize_word(w) for w in collapsed.split())
            # oracle lowercases inside _normalize_word
            assert got == ref


    def test_ascii_shortcut_matches_the_unicode_path(self):
        # NFKD and the mark filter are skipped for ASCII, which they leave as it is
        rng = random.Random(7)
        alphabet = "abcXYZsehx019-'.,;_" + " " * 6 + "\t\n\r\x0b\x0c\x1c\x1f"
        for _ in range(2000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(40)))
            decomposed = unicodedata.normalize("NFKD", text)
            assert "".join(c for c in decomposed if not unicodedata.combining(c)) == text
            assert normalize_term(text) == " ".join(
                oracles._normalize_word(w) for w in text.split())


MINI = {
    "entries": {
        "keel": {"variants": {"pt": ["quilha"], "en": ["keel"]},
                 "definitions": {"en": "The keel is the main longitudinal timber"},
                 "related": ["sternpost"]},
        "sternpost": {"variants": {"pt": ["codaste"]}},
    }
}


class TestGlossary:
    def test_fixture_two_entries(self):
        g = load_glossary(json.dumps(MINI))
        assert len(g) == 2
        assert len(g.variant_index) >= 2

    def test_duplicate_id_rejected(self):
        raw = '{"entries": {"keel": {}, "keel": {}}}'
        with pytest.raises(GlossaryFormatError):
            load_glossary(raw)

    def test_dangling_related_rejected(self):
        doc = {"entries": {"keel": {"related": ["ghost"]}}}
        with pytest.raises(GlossaryFormatError):
            load_glossary(json.dumps(doc))

    def test_degenerate_variant_rejected(self):
        doc = {"entries": {"keel": {"variants": {"en": ["  "]}}}}
        with pytest.raises(GlossaryFormatError):
            load_glossary(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(GlossaryFormatError):
            load_glossary(b"{nope")

    def test_lookup_hit(self):
        g = load_glossary(json.dumps(MINI))
        assert lookup(g, "quilha") == {"keel"}
        assert lookup(g, "QUILHA") == {"keel"}

    def test_lookup_miss(self):
        g = load_glossary(json.dumps(MINI))
        assert lookup(g, "astrolabe") == set()

    def test_lookup_normalizes_plural(self):
        g = load_glossary(json.dumps(MINI))
        assert lookup(g, "keels") == {"keel"}

    def test_packaged_parts_glossary(self, parts_glossary):
        assert len(parts_glossary) == 5
        assert lookup(parts_glossary, "quilha") == {"keel"}
        assert lookup(parts_glossary, "codaste") == {"sternpost"}


class TestExpandTerms:
    def test_variant_expansion(self):
        g = load_glossary(json.dumps(MINI))
        out = expand_terms(g, {"quilha"})
        assert {"quilha", "keel"} <= out
        # without the related flag, sternpost variants stay out
        assert "codaste" not in out

    def test_related_one_hop(self):
        g = load_glossary(json.dumps(MINI))
        out = expand_terms(g, {"quilha"}, include_related=True)
        assert {"quilha", "keel", "codaste"} <= out

    def test_superset_of_normalized_inputs(self):
        g = load_glossary(json.dumps(MINI))
        terms = {"Frames", "QUILHA", "riverboat"}
        out = expand_terms(g, terms)
        assert {normalize_term(t) for t in terms} <= out

    def test_miss_passthrough(self):
        g = load_glossary(json.dumps(MINI))
        assert expand_terms(g, {"astrolabe"}) == {"astrolabe"}

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.sampled_from(
        ["quilha", "keel", "keels", "codaste", "mast", "Astrolabe", ""]), max_size=4))
    def test_monotone_in_related_flag(self, terms):
        g = load_glossary(json.dumps(MINI))
        plain = expand_terms(g, terms)
        related = expand_terms(g, terms, include_related=True)
        assert plain <= related


class TestTokenizeStopwords:
    def test_tokenize_splits_on_non_letters(self):
        assert tokenize("keel-bolt, 3 planks!") == ["keel", "bolt", "plank"]

    def test_stopwords_normalized(self):
        stop = load_stopwords("The\nIS\n\n  of  \n")
        assert stop == {"the", "is", "of"}

    def test_packaged_lists_exist_per_language(self):
        for lang in fixtures.LANGUAGES:
            words = fixtures.stopwords(lang)
            assert len(words) > 5

    def test_unknown_language_raises(self):
        with pytest.raises(KeyError):
            fixtures.stopwords("tlh")
