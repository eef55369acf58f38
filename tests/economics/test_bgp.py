"""Tests for the BGP-style economics baseline."""

import pytest

from repro.economics.bgp import AsRelationship, BgpEconomy, RelationshipKind


def cp(a, b, price=0.03):
    return AsRelationship(a, b, RelationshipKind.CUSTOMER_PROVIDER, price)


def peer(a, b):
    return AsRelationship(a, b, RelationshipKind.PEER)


@pytest.fixture
def hierarchy():
    """small1, small2 are customers of big1, big2; big1-big2 peer."""
    economy = BgpEconomy()
    economy.add_relationship(cp("small1", "big1"))
    economy.add_relationship(cp("small2", "big2"))
    economy.add_relationship(peer("big1", "big2"))
    return economy


class TestRelationships:
    def test_settlement_free_kinds_reject_price(self):
        with pytest.raises(ValueError, match="settlement-free"):
            AsRelationship("a", "b", RelationshipKind.PEER, 0.05)

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            AsRelationship("a", "b", RelationshipKind.CUSTOMER_PROVIDER, -1.0)

    def test_duplicate_rejected(self, hierarchy):
        with pytest.raises(ValueError, match="already exists"):
            hierarchy.add_relationship(cp("small1", "big1"))
        with pytest.raises(ValueError, match="already exists"):
            hierarchy.add_relationship(cp("big1", "small1"))

    def test_symmetric_lookup(self, hierarchy):
        assert hierarchy.relationship_between("big1", "small1") is not None


class TestValleyFree:
    def test_up_peer_down_is_valid(self, hierarchy):
        assert hierarchy.is_valley_free(["small1", "big1", "big2", "small2"])

    def test_down_then_up_is_a_valley(self, hierarchy):
        assert not hierarchy.is_valley_free(["big1", "small1", "big1"])

    def test_two_peer_edges_invalid(self):
        economy = BgpEconomy()
        economy.add_relationship(peer("a", "b"))
        economy.add_relationship(peer("b", "c"))
        assert not economy.is_valley_free(["a", "b", "c"])

    def test_missing_relationship_invalid(self, hierarchy):
        assert not hierarchy.is_valley_free(["small1", "small2"])

    def test_trivial_paths_valid(self, hierarchy):
        assert hierarchy.is_valley_free(["small1"])
        assert hierarchy.is_valley_free([])

    def test_siblings_transparent(self):
        economy = BgpEconomy()
        economy.add_relationship(
            AsRelationship("a", "a2", RelationshipKind.SIBLING)
        )
        economy.add_relationship(cp("a2", "p"))
        assert economy.is_valley_free(["a", "a2", "p"])

    def test_meshed_satellite_path_fails(self, hierarchy):
        # The weave the paper describes: in and out of the home system.
        path = ["small1", "big1", "small1", "big1"]
        assert not hierarchy.is_valley_free(path)


class TestValleyFreeFraction:
    def test_fraction_counts(self, hierarchy):
        paths = [
            ["small1", "big1", "big2", "small2"],   # valid
            ["big1", "small1", "big1"],              # valley
            ["small1", "big1"],                      # valid
        ]
        assert hierarchy.valley_free_fraction(paths) == pytest.approx(2 / 3)

    def test_empty_input(self, hierarchy):
        assert hierarchy.valley_free_fraction([]) == 1.0
