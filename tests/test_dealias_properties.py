"""Property-based tests for dealiasing and BGP grouping (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipv6.prefix import Prefix
from repro.scanner.dealias import group_hits_by_prefix, split_hits
from repro.simnet.bgp import BgpTable, group_by_routed_prefix

addresses = st.integers(min_value=0, max_value=(1 << 128) - 1)
prefix_lengths = st.integers(min_value=0, max_value=128)


class TestHitGroupingProperties:
    @settings(max_examples=30)
    @given(st.lists(addresses, max_size=40), st.integers(min_value=0, max_value=128))
    def test_groups_partition_hits(self, hits, length):
        groups = group_hits_by_prefix(hits, length)
        regrouped = [a for members in groups.values() for a in members]
        assert sorted(regrouped) == sorted(int(h) for h in hits)
        for prefix, members in groups.items():
            assert prefix.length == length
            assert all(prefix.contains(m) for m in members)

    @settings(max_examples=30)
    @given(
        st.lists(addresses, max_size=40),
        st.lists(addresses, min_size=0, max_size=5),
    )
    def test_split_hits_partitions(self, hits, aliased_networks):
        aliased = {Prefix.containing(a, 96) for a in aliased_networks}
        aliased_hits, clean_hits = split_hits(hits, aliased)
        assert aliased_hits | clean_hits == {int(h) for h in hits}
        assert not (aliased_hits & clean_hits)
        for h in aliased_hits:
            assert any(p.contains(h) for p in aliased)
        for h in clean_hits:
            assert not any(p.contains(h) for p in aliased)


def _group_by_containing(hits, length):
    """The per-hit ``Prefix.containing`` formulation of the grouping."""
    groups = {}
    for addr in hits:
        groups.setdefault(Prefix.containing(int(addr), length), []).append(int(addr))
    return groups


def _split_by_containing(hits, aliased_prefixes):
    """The per-hit ``Prefix.containing`` formulation of the split."""
    lengths = {p.length for p in aliased_prefixes}
    aliased, clean = set(), set()
    for addr in hits:
        value = int(addr)
        flagged = any(
            Prefix.containing(value, length) in aliased_prefixes
            for length in lengths
        )
        (aliased if flagged else clean).add(value)
    return aliased, clean


# Hits clustered around a few bases, so prefixes hold several hits and
# aliased prefixes of mixed lengths actually catch some of them.
clustered_hits = st.lists(
    st.tuples(
        st.sampled_from([0x20010DB8 << 96, (0x2A000001 << 96) | (7 << 64), 0]),
        st.integers(min_value=0, max_value=(1 << 40) - 1),
    ).map(lambda t: t[0] | t[1]),
    max_size=60,
)


class TestMaskedGroupingParity:
    @settings(max_examples=40)
    @given(clustered_hits, st.sampled_from([0, 32, 64, 88, 96, 100, 112, 127, 128]))
    def test_group_matches_containing(self, hits, length):
        ours = group_hits_by_prefix(hits, length)
        oracle = _group_by_containing(hits, length)
        assert list(ours.items()) == list(oracle.items())

    @settings(max_examples=40)
    @given(
        clustered_hits,
        st.lists(
            st.tuples(addresses, st.sampled_from([48, 64, 96, 104, 112, 128])),
            max_size=6,
        ),
        st.lists(st.integers(min_value=0, max_value=59), max_size=4),
        st.sampled_from([64, 96, 112]),
    )
    def test_split_matches_containing(self, hits, random_prefixes, picks, length):
        aliased = {Prefix.containing(a, n) for a, n in random_prefixes}
        # Also alias prefixes that really contain some of the hits.
        aliased |= {Prefix.containing(hits[i], length) for i in picks if i < len(hits)}
        assert split_hits(hits, aliased) == _split_by_containing(hits, aliased)


class TestBgpProperties:
    @settings(max_examples=30)
    @given(
        st.lists(
            st.tuples(addresses, st.integers(min_value=8, max_value=64)),
            min_size=1,
            max_size=10,
        ),
        st.lists(addresses, max_size=30),
    )
    def test_grouping_respects_lpm(self, route_specs, addrs):
        table = BgpTable()
        seen_prefixes = set()
        for i, (network, length) in enumerate(route_specs):
            prefix = Prefix.containing(network, length)
            if prefix in seen_prefixes:
                continue
            seen_prefixes.add(prefix)
            table.add_route(prefix, 1000 + i)
        groups = group_by_routed_prefix(addrs, table)
        for prefix, members in groups.items():
            for member in members:
                route = table.lookup(member)
                assert route is not None
                assert route.prefix == prefix

    @settings(max_examples=30)
    @given(addresses, st.integers(min_value=1, max_value=127))
    def test_more_specific_route_wins(self, network, length):
        table = BgpTable()
        coarse = Prefix.containing(network, length)
        fine = Prefix.containing(network, min(length + 1, 128))
        table.add_route(coarse, 1)
        table.add_route(fine, 2)
        assert table.origin_asn(network) == 2
