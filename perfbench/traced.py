"""Per-layer metrics of a traced pass, and of the program's cold import.

Layers are named after the program's modules.  Times come from the
spans in :mod:`probes`; counts come from the program's own trace
events, counted by an in-memory exporter; the executor's sub-steps come
from the ``PerfCounters`` every engine gets from ``enable_profiling``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Any

#: Per-layer metric -> unit.  Times are seconds at the reference host
#: speed (see harness.py), per traced pass.
PER_LAYER: dict[str, str] = {
    "startup.import_s": "s",
    "startup.scipy_s": "s",
    "startup.networkx_s": "s",
    "runner.tasks": "count",
    "runner.self_s": "s",
    "control.submits": "count",
    "control.submit_s": "s",
    "router.placements": "count",
    "router.place_s": "s",
    "sharding.self_s": "s",
    "service.jobs_started": "count",
    "service.self_s": "s",
    "executor.fluid_steps": "count",
    "executor.fluid_step_s": "s",
    "executor.self_s": "s",
    "executor.session_adds": "count",
    "executor.session_removes": "count",
    "executor.topology_rebuilds": "count",
    "executor.rebuilds_per_step": "ratio",
    "executor.demand_caps_s": "s",
    "executor.waterfill_s": "s",
    "executor.loss_s": "s",
    "executor.equilibrium_cache_s": "s",
    "batch.steps": "count",
    "batch.step_s": "s",
    "batch.cascades": "count",
    "engine.events_fired": "count",
    "engine.self_s": "s",
    "engine.adaptive_jumps": "count",
    "agent.decisions": "count",
    "agent.decide_s": "s",
    "optimizer.update_s": "s",
    "faults.injected": "count",
    "obs.events": "count",
    "obs.traced_overhead": "ratio",
    "attributed_share": "ratio",
    "unattributed_s": "s",
}


def layer_metrics(spans: Any, events: Any, profiles: Any, pass_raw_s: float, scale: float) -> dict:
    """Per-layer metrics of one traced pass of ``pass_raw_s`` host seconds.

    ``scale`` turns host seconds into reference seconds.  Every layer's
    self time is attributed; the rest of the pass is unattributed.
    """
    count = events.counts
    steps = spans.calls("FluidTransferNetwork.fluid_step")
    attributed = spans.attributed()
    return {
        "runner.tasks": spans.task_count,
        "runner.self_s": spans.layer_self("runner") * scale,
        "control.submits": spans.calls("ControlPlane.submit"),
        "control.submit_s": spans.busy("ControlPlane.submit") * scale,
        "router.placements": spans.calls("ShardRouter.place"),
        "router.place_s": spans.busy("ShardRouter.place") * scale,
        "sharding.self_s": spans.layer_self("sharding") * scale,
        "service.jobs_started": spans.calls("FalconService.start_job"),
        "service.self_s": spans.layer_self("service") * scale,
        "executor.fluid_steps": steps,
        "executor.fluid_step_s": spans.busy("FluidTransferNetwork.fluid_step") * scale,
        "executor.self_s": spans.layer_self("executor") * scale,
        "executor.session_adds": spans.calls("FluidTransferNetwork.add_session"),
        "executor.session_removes": spans.calls("FluidTransferNetwork.remove_session"),
        "executor.topology_rebuilds": count["fluid.topology_rebuild"],
        "executor.rebuilds_per_step": count["fluid.topology_rebuild"] / steps if steps else 0.0,
        "executor.demand_caps_s": profiles.total("demand_caps") * scale,
        "executor.waterfill_s": profiles.total("waterfill") * scale,
        "executor.loss_s": profiles.total("loss") * scale,
        "executor.equilibrium_cache_s": profiles.total("equilibrium_cache") * scale,
        "batch.steps": spans.calls("BatchStore.step"),
        "batch.step_s": spans.busy("BatchStore.step") * scale,
        "batch.cascades": count["fluid.cascade"],
        "engine.events_fired": count["engine.event"],
        "engine.self_s": spans.layer_self("engine") * scale,
        "engine.adaptive_jumps": count["engine.adaptive_jump"],
        "agent.decisions": spans.layer_calls("agent"),
        "agent.decide_s": spans.layer_busy("agent") * scale,
        "optimizer.update_s": spans.layer_busy("optimizer") * scale,
        "faults.injected": count["fault.inject"],
        "obs.events": sum(count.values()),
        "attributed_share": attributed / pass_raw_s if pass_raw_s > 0 else 0.0,
        "unattributed_s": (pass_raw_s - attributed) * scale,
    }


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def startup_metrics(root: Path) -> dict:
    """Cold ``import repro.cli`` in a fresh interpreter, by package.

    Runs ``python -X importtime`` on the program's CLI module and adds
    up the self time of every ``scipy.*`` and ``networkx.*`` module;
    ``startup.import_s`` is the CLI module's cumulative time.  Host
    seconds, not rescaled.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    total = scipy = networkx = 0.0
    for line in proc.stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match is None:
            continue
        self_us, cumulative_us, module = match.groups()
        package = module.split(".", 1)[0]
        if package == "scipy":
            scipy += int(self_us) * 1e-6
        elif package == "networkx":
            networkx += int(self_us) * 1e-6
        if module == "repro.cli":
            total = int(cumulative_us) * 1e-6
    return {"startup.import_s": total, "startup.scipy_s": scipy, "startup.networkx_s": networkx}
