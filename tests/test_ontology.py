import json
import random

import pytest

import oracles
from treatise.ontology import (
    CycleError,
    OntologyFormatError,
    UnknownConceptError,
    ancestors,
    load_ontology,
    related,
)


def make(concepts, roots=()):
    return load_ontology(json.dumps({"roots": list(roots), "concepts": concepts}))


def random_dag(rng, n):
    """Random DAG over ids n0..n{n-1}; edges only point to lower indices."""
    concepts = {}
    for i in range(n):
        parents = [f"n{j}" for j in range(i) if rng.random() < 0.25]
        concepts[f"n{i}"] = {"is_a": parents}
    return concepts


class TestLoad:
    def test_fixture_loads(self, ship_ontology):
        assert len(ship_ontology) >= 2
        assert "RiderFrame" in ship_ontology.concepts
        assert ship_ontology.concepts["RiderFrame"].is_a == ("HullComponent",)
        assert ship_ontology.concepts["SternKnee"].part_of == ("Sternpost",)
        assert ship_ontology.concepts["AuxiliaryComponent"].label == "Auxiliary Component"

    def test_single_concept(self):
        onto = make({"lone": {}})
        assert len(onto) == 1

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError) as err:
            make({"A": {"is_a": ["B"]}, "B": {"is_a": ["A"]}})
        assert set(err.value.cycle) == {"A", "B"}

    def test_self_cycle_rejected(self):
        with pytest.raises(CycleError):
            make({"A": {"is_a": ["A"]}})

    def test_dangling_is_a(self):
        with pytest.raises(OntologyFormatError):
            make({"A": {"is_a": ["ghost"]}})

    def test_dangling_part_of(self):
        with pytest.raises(OntologyFormatError):
            make({"A": {"part_of": ["ghost"]}})

    @pytest.mark.parametrize("label", [None, 5, ["x"]])
    def test_non_string_label(self, label):
        with pytest.raises(OntologyFormatError, match="concept 'A': label"):
            make({"A": {"label": label}})

    def test_unknown_zone(self):
        with pytest.raises(OntologyFormatError):
            make({"A": {"zone": "amidships"}})

    def test_missing_root(self):
        with pytest.raises(OntologyFormatError):
            make({"A": {}}, roots=["B"])

    def test_bad_json(self):
        with pytest.raises(OntologyFormatError):
            load_ontology(b"[")

    def test_injected_back_edges_always_rejected(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(2, 20)
            concepts = random_dag(rng, n)
            # pick an existing forward edge's endpoints, close the loop
            child = rng.randint(1, n - 1)
            anc_pool = [j for j in range(child)] or [0]
            target = rng.choice(anc_pool)
            concepts[f"n{child}"]["is_a"] = list(
                set(concepts[f"n{child}"].get("is_a", [])) | {f"n{target}"})
            concepts[f"n{target}"].setdefault("is_a", []).append(f"n{child}")
            with pytest.raises(CycleError):
                make(concepts)


class TestAncestors:
    def test_fixture_rider_frame(self, ship_ontology):
        assert "HullComponent" in ancestors(ship_ontology, "RiderFrame")

    def test_root_empty(self, ship_ontology):
        assert ancestors(ship_ontology, "HullComponent") == []

    def test_unknown_id(self, ship_ontology):
        with pytest.raises(UnknownConceptError):
            ancestors(ship_ontology, "Bowsprit")

    def test_bfs_order_nearest_first(self):
        onto = make({
            "root": {},
            "mid": {"is_a": ["root"]},
            "leaf": {"is_a": ["mid"]},
        })
        assert ancestors(onto, "leaf") == ["mid", "root"]

    def test_closure_matches_reachability_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 50)
            concepts = random_dag(rng, n)
            onto = make(concepts)
            parents = {cid: list(c["is_a"]) for cid, c in concepts.items()}
            probe = f"n{rng.randrange(n)}"
            assert set(ancestors(onto, probe)) == \
                oracles.reachability_oracle(parents, probe)

    def test_transitivity(self):
        rng = random.Random(9)
        for _ in range(20):
            concepts = random_dag(rng, rng.randint(3, 20))
            onto = make(concepts)
            for c in list(onto.concepts)[:8]:
                for b in ancestors(onto, c):
                    for a in ancestors(onto, b):
                        assert a in ancestors(onto, c)

    def test_no_self_no_duplicates(self):
        rng = random.Random(11)
        for _ in range(20):
            concepts = random_dag(rng, rng.randint(1, 25))
            onto = make(concepts)
            for cid in onto.concepts:
                anc = ancestors(onto, cid)
                assert cid not in anc
                assert len(anc) == len(set(anc))


class TestRelated:
    def test_fixture_symmetric_hit(self, ship_ontology):
        assert "Frame" in related(ship_ontology, "RiderFrame")
        assert "RiderFrame" in related(ship_ontology, "Frame")

    def test_no_edges(self, ship_ontology):
        assert related(ship_ontology, "Scarf") == set()

    def test_symmetry_random(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(2, 15)
            concepts = {f"n{i}": {"related_to": []} for i in range(n)}
            for i in range(n):
                for j in range(n):
                    if i != j and rng.random() < 0.15:
                        concepts[f"n{i}"]["related_to"].append(f"n{j}")
            onto = make(concepts)
            for a in onto.concepts:
                for b in onto.concepts:
                    if a != b:
                        assert (b in related(onto, a)) == (a in related(onto, b))
                        listed = (b in concepts[a]["related_to"]
                                  or a in concepts[b]["related_to"])
                        assert (b in related(onto, a)) == listed


class TestSpatialZone:
    def test_own_zone(self, ship_ontology):
        assert ship_ontology.concepts["Keel"].zone == "keel"


class TestGlossLinks:
    def test_concepts_for_gloss(self, ship_ontology):
        assert ship_ontology.concepts_for_gloss("keel") == ("Keel",)
        assert ship_ontology.concepts_for_gloss("rider frame") == ("RiderFrame",)
        assert ship_ontology.concepts_for_gloss("unlinked") == ()
