"""The paper's test environments (Table 1) as simulator configurations.

| Testbed        | Storage    | Bandwidth | RTT   | Bottleneck |
|----------------|------------|-----------|-------|------------|
| Emulab         | RAID-0 SSD | 1G        | 30ms  | Network    |
| XSEDE          | Lustre     | 10G       | 40ms  | Disk Read  |
| HPCLab         | NVMe SSD   | 40G       | 0.1ms | Disk Write |
| Campus Cluster | GPFS       | 10G       | 0.1ms | NIC        |

plus the Stampede2–Comet pair (40 Gbps, 60 ms) used in §4.3–§4.5.

Per-process and aggregate storage rates are calibrated so the
simulator's analytic optima match the paper's reported behaviour:
HPCLab needs ~9 concurrent writers for >25 Gbps; XSEDE needs ~10
readers for ~5.4 Gbps; Campus Cluster saturates its 10G NIC around 7;
Emulab's throttles put the optimum at 10 (Fig 4/9) or 48 (Fig 7/13).

Each call builds *fresh* hosts and links, so concurrent experiments
never share state across testbed instances; sessions created from the
same instance do share resources (that is the point).
"""

from __future__ import annotations

from repro.hosts.cpu import CpuModel
from repro.hosts.dtn import DataTransferNode
from repro.hosts.nic import Nic
from repro.network.link import Link
from repro.network.path import Path, build_dumbbell
from repro.network.queue import DropTailLossModel
from repro.network.tcp import TcpModel
from repro.storage.parallel_fs import ParallelFileSystem, throttled_fs
from repro.testbeds.base import Testbed
from repro.units import Gbps, Mbps, MiB, milliseconds


def emulab(
    link_bps: float = 100 * Mbps,
    per_process_bps: float = 10 * Mbps,
    rtt: float = milliseconds(30),
) -> Testbed:
    """Emulab emulation testbed (Fig. 3 topology): network bottleneck.

    Per-process I/O is throttled (the paper uses ``tc``-style throttles
    of 10–21 Mbps) so that ``link_bps / per_process_bps`` concurrent
    transfers are needed to saturate the bottleneck.
    """
    storage = throttled_fs(
        per_process_bps=per_process_bps,
        aggregate_bps=4 * link_bps,  # direct-attached SSD outruns the link
        name="raid0-ssd-throttled",
    )
    # Edge links and NICs are provisioned above the bottleneck so the
    # emulated middle link is the only congestion point (Fig. 3).
    edge_bps = 2 * link_bps
    cpu = CpuModel(cores=32, oversubscription_penalty=0.15)
    src = DataTransferNode("emulab-src", storage=storage, nic=Nic(edge_bps, "src-nic"), cpu=cpu)
    dst = DataTransferNode(
        "emulab-dst",
        storage=throttled_fs(per_process_bps, 4 * link_bps, "raid0-ssd-throttled"),
        nic=Nic(edge_bps, "dst-nic"),
        cpu=CpuModel(cores=32, oversubscription_penalty=0.15),
    )
    return Testbed(
        name="Emulab",
        source=src,
        destination=dst,
        path=build_dumbbell(link_bps, rtt, edge_capacity=edge_bps, name="emulab"),
        sample_interval=5.0,
        bottleneck="Network",
    )


def emulab_fig4() -> Testbed:
    """Fig. 4 / Fig. 9(a) configuration: 100 Mbps link, 10 Mbps/process.

    Ten concurrent transfers reach full utilisation; more only add loss.
    """
    return emulab(link_bps=100 * Mbps, per_process_bps=10 * Mbps)


def emulab_high_optimal(per_process_bps: float = 21 * Mbps) -> Testbed:
    """Fig. 7 / Fig. 13 configuration: 1 Gbps link, ~21 Mbps/process.

    48 concurrent transfers are needed before the network becomes the
    bottleneck — the "high optimal concurrency" stress case.
    """
    return emulab(link_bps=1 * Gbps, per_process_bps=per_process_bps)


def emulab_io_bound(
    per_process_bps: float = 21 * Mbps, aggregate_bps: float = 1000 * Mbps
) -> Testbed:
    """Fig. 6 configuration: the I/O *aggregate* binds, not the link.

    48 concurrent readers saturate the storage array while the network
    (2 Gbps) never congests — so packet loss stays at the residual
    level and the concurrency-regret term alone must stop
    over-provisioning.  This isolates exactly the failure mode Fig. 6
    attributes to linear regret.
    """
    tb = emulab(link_bps=2 * Gbps, per_process_bps=per_process_bps)
    throttled = throttled_fs(per_process_bps, aggregate_bps, "raid0-ssd-throttled")
    tb.source.storage = throttled
    tb.destination.storage = throttled_fs(
        per_process_bps, aggregate_bps, "raid0-ssd-throttled"
    )
    return tb


def xsede() -> Testbed:
    """XSEDE (OSG ↔ Comet): 10 Gbps, 40 ms, disk-read bottleneck."""
    lustre_src = ParallelFileSystem(
        name="lustre-osg",
        per_process_read_bps=0.6 * Gbps,
        per_process_write_bps=1.5 * Gbps,
        aggregate_read_bps=5.8 * Gbps,
        aggregate_write_bps=12 * Gbps,
        contention=0.006,
        open_latency=2e-3,
    )
    lustre_dst = ParallelFileSystem(
        name="lustre-comet",
        per_process_read_bps=1.5 * Gbps,
        per_process_write_bps=1.5 * Gbps,
        aggregate_read_bps=14 * Gbps,
        aggregate_write_bps=12 * Gbps,
        contention=0.006,
        open_latency=2e-3,
    )
    src = DataTransferNode("osg-dtn", storage=lustre_src, nic=Nic(10 * Gbps, "osg-nic"))
    dst = DataTransferNode("comet-dtn", storage=lustre_dst, nic=Nic(10 * Gbps, "comet-nic"))
    return Testbed(
        name="XSEDE",
        source=src,
        destination=dst,
        path=build_dumbbell(10 * Gbps, milliseconds(40), edge_capacity=100 * Gbps, name="xsede"),
        sample_interval=5.0,
        bottleneck="Disk Read",
    )


def hpclab() -> Testbed:
    """HPCLab: isolated LAN pair, 40 Gbps, 0.1 ms, disk-write bottleneck."""
    nvme_src = ParallelFileSystem(
        name="nvme-raid-src",
        per_process_read_bps=6.0 * Gbps,
        per_process_write_bps=6.0 * Gbps,
        aggregate_read_bps=38 * Gbps,
        aggregate_write_bps=30 * Gbps,
        contention=0.01,
        open_latency=3e-4,
    )
    nvme_dst = ParallelFileSystem(
        name="nvme-raid-dst",
        per_process_read_bps=6.0 * Gbps,
        per_process_write_bps=3.2 * Gbps,
        aggregate_read_bps=38 * Gbps,
        aggregate_write_bps=28 * Gbps,
        contention=0.01,
        open_latency=3e-4,
    )
    src = DataTransferNode("hpclab-src", storage=nvme_src, nic=Nic(40 * Gbps, "hpclab-nic"))
    dst = DataTransferNode("hpclab-dst", storage=nvme_dst, nic=Nic(40 * Gbps, "hpclab-nic"))
    return Testbed(
        name="HPCLab",
        source=src,
        destination=dst,
        path=build_dumbbell(40 * Gbps, milliseconds(0.1), edge_capacity=100 * Gbps, name="hpclab"),
        sample_interval=3.0,
        bottleneck="Disk Write",
    )


def campus_cluster() -> Testbed:
    """Campus Cluster: GPFS, same LAN, 10 Gbps NIC bottleneck."""
    gpfs = ParallelFileSystem(
        name="gpfs",
        per_process_read_bps=1.6 * Gbps,
        per_process_write_bps=1.6 * Gbps,
        aggregate_read_bps=22 * Gbps,
        aggregate_write_bps=20 * Gbps,
        contention=0.004,
        open_latency=1.5e-3,
    )
    gpfs_dst = ParallelFileSystem(
        name="gpfs",
        per_process_read_bps=1.6 * Gbps,
        per_process_write_bps=1.6 * Gbps,
        aggregate_read_bps=22 * Gbps,
        aggregate_write_bps=20 * Gbps,
        contention=0.004,
        open_latency=1.5e-3,
    )
    src = DataTransferNode("campus-src", storage=gpfs, nic=Nic(10 * Gbps, "campus-nic"))
    dst = DataTransferNode("campus-dst", storage=gpfs_dst, nic=Nic(10 * Gbps, "campus-nic"))
    return Testbed(
        name="Campus Cluster",
        source=src,
        destination=dst,
        path=build_dumbbell(40 * Gbps, milliseconds(0.1), edge_capacity=100 * Gbps, name="campus"),
        sample_interval=3.0,
        bottleneck="NIC",
    )


def stampede2_comet() -> Testbed:
    """Stampede2 → Comet: 40 Gbps WAN, 60 ms (§4.3–§4.5 experiments).

    The long-fat regime: one TCP stream is window-capped at ~2.2 Gbps,
    so parallelism matters; Lustre at both ends supports ~30 Gbps
    aggregate, making the storage arrays the end-to-end limit.
    """
    lustre_src = ParallelFileSystem(
        name="lustre-stampede2",
        per_process_read_bps=1.8 * Gbps,
        per_process_write_bps=2.5 * Gbps,
        aggregate_read_bps=30 * Gbps,
        aggregate_write_bps=34 * Gbps,
        contention=0.005,
        open_latency=2e-3,
    )
    lustre_dst = ParallelFileSystem(
        name="lustre-comet",
        per_process_read_bps=2.5 * Gbps,
        per_process_write_bps=1.8 * Gbps,
        aggregate_read_bps=34 * Gbps,
        aggregate_write_bps=30 * Gbps,
        contention=0.005,
        open_latency=2e-3,
    )
    tcp = TcpModel(name="cubic", buffer_bytes=16 * MiB)
    src = DataTransferNode("stampede2-dtn", storage=lustre_src, nic=Nic(40 * Gbps, "s2-nic"))
    dst = DataTransferNode("comet-dtn", storage=lustre_dst, nic=Nic(40 * Gbps, "comet-nic"))
    return Testbed(
        name="Stampede2-Comet",
        source=src,
        destination=dst,
        path=build_dumbbell(40 * Gbps, milliseconds(60), edge_capacity=100 * Gbps, name="s2-comet"),
        sample_interval=5.0,
        bottleneck="Disk Read",
        tcp=tcp,
    )


def metro(n_sites: int = 16, sessions_per_site: int = 16) -> list[Testbed]:
    """Metro ring: 256 session pairs over 16 shared sites (scale scenario).

    The scale stress shape behind the ``metro-window`` workload of
    ``perfbench/``: a ring of ``n_sites`` metro sites, each with one
    shared storage array and one shared 100 Gbps NIC, joined by
    100 Gbps ring links.  Session
    ``k`` sources at site ``k % n_sites`` and travels *clockwise* for
    ``1 + (k // n_sites) % (n_sites - 1)`` hops, so the default
    16 x 16 = 256 sessions have heterogeneous path lengths (RTTs from
    3 ms to 45 ms), every ring link carries dozens of overlapping
    sessions, and every site's storage/NIC arbitrates the workers of
    ~32 sessions — the many-tenant regime the batched engine exists for.

    Returns one :class:`Testbed` per session pair; all of them alias
    the same site hosts and ring links (sharing is the point).
    """
    loss_model = DropTailLossModel()
    sites = []
    for i in range(n_sites):
        storage = ParallelFileSystem(
            name=f"metro-fs-{i}",
            per_process_read_bps=500 * Mbps,
            per_process_write_bps=500 * Mbps,
            aggregate_read_bps=40 * Gbps,
            aggregate_write_bps=40 * Gbps,
            contention=0.004,
            open_latency=1e-3,
        )
        sites.append(
            DataTransferNode(
                f"metro-site-{i}",
                storage=storage,
                nic=Nic(100 * Gbps, name=f"metro-nic-{i}"),
                cpu=CpuModel(cores=2048, oversubscription_penalty=0.05),
            )
        )
    ring = [
        Link(
            f"metro-ring-{i}",
            100 * Gbps,
            delay=milliseconds(1.5),
            loss_model=loss_model,
        )
        for i in range(n_sites)
    ]

    testbeds = []
    for k in range(n_sites * sessions_per_site):
        src = k % n_sites
        hops = 1 + (k // n_sites) % (n_sites - 1)
        links = tuple(ring[(src + h) % n_sites] for h in range(hops))
        testbeds.append(
            Testbed(
                name=f"metro-{k}",
                source=sites[src],
                destination=sites[(src + hops) % n_sites],
                path=Path(links=links, name=f"metro-path-{k}"),
                sample_interval=5.0,
                bottleneck="Network",
            )
        )
    return testbeds


def TABLE1() -> list[Testbed]:
    """Fresh instances of the four Table 1 testbeds."""
    return [emulab_fig4(), xsede(), hpclab(), campus_cluster()]
