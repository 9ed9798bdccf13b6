"""Network substrate: links, drop-tail loss, TCP fluid behaviour, paths.

The model is a *fluid* abstraction of the mechanisms Falcon's black-box
view depends on:

* a link has a capacity and contributes delay (RTT);
* equal-RTT flows sharing a saturated link get max-min fair shares;
* a single TCP stream is capped by its window (``cwnd_max / RTT``);
* packet loss is negligible below saturation and grows superlinearly
  with the number of flows once the bottleneck is saturated (each flow
  probes for bandwidth, and more flows with smaller per-flow windows
  cause more frequent queue overflows — the Mathis relation inverted).
"""

from repro.network.link import Link
from repro.network.path import Path, build_dumbbell
from repro.network.queue import DropTailLossModel, LossModel, NoLossModel
from repro.network.tcp import BBR, CUBIC, HSTCP, RENO, TcpModel, stream_window_cap

__all__ = [
    "Link",
    "Path",
    "build_dumbbell",
    "BBR",
    "CUBIC",
    "HSTCP",
    "RENO",
    "DropTailLossModel",
    "LossModel",
    "NoLossModel",
    "TcpModel",
    "stream_window_cap",
]
