"""Path tests."""

from __future__ import annotations

import pytest

from repro.network.link import Link
from repro.network.path import Path, build_dumbbell
from repro.units import Gbps, Mbps, milliseconds


def make_links():
    return (
        Link("a", capacity=10 * Gbps, delay=0.001),
        Link("b", capacity=1 * Gbps, delay=0.010),
        Link("c", capacity=5 * Gbps, delay=0.004),
    )


class TestPath:
    def test_rtt_is_twice_delay_sum(self):
        path = Path(links=make_links())
        assert path.rtt == pytest.approx(2 * (0.001 + 0.010 + 0.004))

    def test_capacity_is_min(self):
        path = Path(links=make_links())
        assert path.capacity == 1 * Gbps

    def test_bottleneck_link(self):
        path = Path(links=make_links())
        assert path.bottleneck.name == "b"

    def test_len_and_iter(self):
        path = Path(links=make_links())
        assert len(path) == 3
        assert [l.name for l in path] == ["a", "b", "c"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Path(links=())

    def test_duplicate_link_rejected(self):
        link = Link("dup", capacity=1e9)
        with pytest.raises(ValueError):
            Path(links=(link, link))


class TestDumbbell:
    def test_structure(self):
        path = build_dumbbell(100 * Mbps, milliseconds(30))
        assert len(path) == 3
        assert path.capacity == 100 * Mbps
        assert path.rtt == pytest.approx(0.03)

    def test_edge_capacity_default(self):
        path = build_dumbbell(100 * Mbps, 0.03)
        edges = [l for l in path if "edge" in l.name]
        assert all(l.capacity == 10 * 100 * Mbps for l in edges)

    def test_edge_capacity_override(self):
        path = build_dumbbell(100 * Mbps, 0.03, edge_capacity=1 * Gbps)
        edges = [l for l in path if "edge" in l.name]
        assert all(l.capacity == 1 * Gbps for l in edges)

    def test_only_bottleneck_lossy(self):
        path = build_dumbbell(100 * Mbps, 0.03)
        bottleneck = path.bottleneck
        for link in path:
            loss = link.loss_rate(link.capacity, 32, 0.03)
            if link is bottleneck:
                assert loss > 0.0
            else:
                assert loss == 0.0

