"""The executor's array topology build equals the dict-grouping reference.

``FluidTransferNetwork._build_topology`` numbers resources, sorts
memberships and reduces link state with array operations;
``reference_topology`` (``tests/integration/per_session.py``) is the
builder it replaced, one Python pass per session and worker.  The real
workloads put every session on the same resources, so random layouts
here supply what they do not: sessions on a few of many storages, NICs
and links, paths that share links in different orders, mixed
transports, and resources whose sessions are not contiguous.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hosts.dtn import DataTransferNode
from repro.hosts.nic import Nic
from repro.network.link import Link
from repro.network.path import Path
from repro.network.tcp import BBR, CUBIC
from repro.sim.engine import SimulationEngine
from repro.storage.parallel_fs import ParallelFileSystem
from repro.transfer.dataset import uniform_dataset
from repro.transfer.executor import FluidTransferNetwork
from repro.transfer.session import TransferParams, TransferSession
from repro.units import MB, Gbps, milliseconds

from tests.integration.per_session import assert_same_topology, reference_topology

POOL = 3
N_LINKS = 4


@st.composite
def layouts(draw) -> list[tuple]:
    """Per session: (src, dst) host keys, path, transport, concurrency, parallelism.

    Sessions 0 and 2 read from storage 0 and session 1 from storage 1,
    so the ``read`` resource of storage 0 serves a non-contiguous
    subset of the sessions.
    """
    n = draw(st.integers(3, 8))
    host = st.tuples(st.integers(0, POOL - 1), st.integers(0, POOL - 1))
    sessions = []
    for i in range(n):
        src = draw(host)
        if i < 3:
            src = (0 if i != 1 else 1, src[1])
        sessions.append(
            (
                src,
                draw(host),
                tuple(draw(st.lists(st.integers(0, N_LINKS - 1), min_size=1, max_size=3, unique=True))),
                draw(st.sampled_from([CUBIC, BBR])),
                draw(st.integers(1, 8)),
                draw(st.integers(1, 4)),
            )
        )
    return sessions


def build_sessions(layout: list[tuple]) -> list[TransferSession]:
    storages = [ParallelFileSystem(name=f"fs{i}") for i in range(POOL)]
    nics = [Nic(10 * Gbps, name=f"nic{i}") for i in range(POOL)]
    links = [
        Link(f"l{i}", (1 + i) * Gbps, delay=milliseconds(1 + 3 * i)) for i in range(N_LINKS)
    ]
    hosts: dict[tuple[str, tuple[int, int]], DataTransferNode] = {}

    def node(side: str, key: tuple[int, int]) -> DataTransferNode:
        if (side, key) not in hosts:
            hosts[side, key] = DataTransferNode(
                f"{side}{key}", storage=storages[key[0]], nic=nics[key[1]]
            )
        return hosts[side, key]

    return [
        TransferSession(
            f"s{i}",
            node("src", src),
            node("dst", dst),
            Path(tuple(links[j] for j in path)),
            uniform_dataset(20, 100 * MB).queue(),
            tcp=tcp,
            params=TransferParams(concurrency=cc, parallelism=p),
        )
        for i, (src, dst, path, tcp, cc, p) in enumerate(layout)
    ]


@settings(max_examples=150, deadline=None)
@given(layouts())
def test_array_build_equals_reference(layout):
    sessions = build_sessions(layout)
    net = FluidTransferNetwork(SimulationEngine())
    want = reference_topology(sessions)
    got = net._build_topology(sessions)
    assert_same_topology(want, got, "array build differs from the reference")
    # The same equilibrium, to the last bit, from either topology.
    net._equilibrium(want)
    net._equilibrium(got)
    for name in ("demand_cap", "final", "losses"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name
