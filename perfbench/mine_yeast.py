"""Workload ``mine-yeast``: the paper's Figure-5 regime, end to end.

``yeast_compendium(seed)`` (300 conditions x ~12.6k gene/direction
items) mined at smin 16 by ``repro-mine mine`` child processes, one per
cell of {ista, lcm, eclat, cumulative-flat} x {bitint, numpy}, each
timed from outside from process start to written output.  This is the
only workload where ``core`` (prefix tree, cumulative scan) and
``enumeration`` do most of the work; ``bitint`` bypasses ``kernels``
while ``numpy`` calls them, so a kernel change should move the numpy
cells and leave the bitint cells flat.

Each cell repeats until it has run for an eighth of ``--seconds`` (at
least once) and reports the median of its wall times, scaled to the
reference box's speed (``common.SpeedClock``): the short cells get
several samples, the long ones one.  ``work_s`` is the grid once (the
sum of the cells), ``op_ms`` a typical mining call (their geometric
mean) and ``tail_ms`` the slowest cell.  The cells are long, so a run
measures longer than ``--seconds``.  The per-layer split of the traced
run is in raw wall seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    Ledger,
    SpeedClock,
    child_env,
    family_digest,
    file_digest,
    geomean,
    median,
    one_cpu,
    repro_command,
    round_trip,
    token_rows,
)

#: Metric name prefix -> ``repro-mine mine -a`` name.
MINERS = {
    "ista": "ista",
    "lcm": "lcm",
    "eclat": "eclat",
    "cumulative": "cumulative-flat",
}
BACKENDS = ("bitint", "numpy")

PAPER = {"gen": {}, "smin": 16}
SETUP_REPEATS = 3
CELL_TIMEOUT = 150.0


@dataclass
class Inputs:
    """What setup leaves behind: the input file and what to expect."""

    fimi: Path
    smin: int
    reference: str
    backends: Dict[str, dict]


def setup(work: Path, seed: int, scale: dict) -> Inputs:
    """Generate the compendium, prove the FIMI file lossless, mine a
    reference in-process and record how each backend name resolves."""
    from repro.datasets.gene_expression import yeast_compendium
    from repro.kernels import selection_report
    from repro.mining import mine

    db = yeast_compendium(seed=seed, **scale["gen"])
    fimi = work / "yeast.fimi"
    read_back = round_trip(token_rows(db), fimi)
    reference = family_digest(
        mine(read_back, scale["smin"], algorithm="eclat", backend="bitint").labeled()
    )
    backends = {name: selection_report(name) for name in BACKENDS}
    return Inputs(fimi, scale["smin"], reference, backends)


def cell_args(inputs: Inputs, miner: str, backend: str, out: Path) -> List[str]:
    return [
        "mine", str(inputs.fimi), "-s", str(inputs.smin), "-a", MINERS[miner],
        "--backend", backend, "-o", str(out),
    ]


def check_cell(
    ledger: Ledger, inputs: Inputs, cell: str, backend: str,
    returncode: int, out: Path, resolved: Optional[str] = None,
) -> bool:
    """One cell is one operation: it must exit 0 on the backend it was
    asked for and write the reference family."""
    resolved = resolved or inputs.backends[backend]["resolved"]
    if resolved != backend:
        return ledger.op(False, f"{cell}: backend {backend} resolved to {resolved}")
    if returncode != 0:
        return ledger.op(False, f"{cell}: exit {returncode}")
    digest = file_digest(out)
    return ledger.op(
        digest == inputs.reference, f"{cell}: digest {digest[:12]} != reference"
    )


def run_cell(inputs: Inputs, miner: str, backend: str, out: Path):
    """``(wall seconds, exit code)`` of one untraced CLI cell."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            repro_command(*cell_args(inputs, miner, backend, out)),
            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=CELL_TIMEOUT,
        )
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = -1
    return time.monotonic() - start, code


def run_traced_cell(inputs: Inputs, miner: str, backend: str, out: Path, work: Path):
    """``(wall seconds, exit code, layer report)`` of one traced cell."""
    report_path = work / "traced.json"
    script = Path(__file__).resolve().parent / "traced_mine.py"
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(script), repr(start), str(report_path),
             *cell_args(inputs, miner, backend, out)],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=CELL_TIMEOUT,
        )
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = -1
    wall = time.monotonic() - start
    report = None
    if code == 0:
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
    return wall, code, report


def run(ledger: Ledger, seed: int, seconds: float, trace: bool, work: Path,
        scale: dict = PAPER) -> None:
    with one_cpu():
        clock = SpeedClock()
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            start = time.perf_counter()
            inputs = setup(work, seed, scale)
            setups.append(time.perf_counter() - start)
            clock.tick()
        ledger.note("backends", inputs.backends)
        out = work / "cell.out"
        if trace:
            traced(ledger, inputs, out, work)
        else:
            measure(ledger, inputs, out, seconds, clock)
    ledger.metric("setup_s", median(setups) / clock.slowdown, "s")
    ledger.note("slowdown", clock.slowdown)
    ledger.note("yardstick ratio", clock.ratio)


def measure(ledger: Ledger, inputs: Inputs, out: Path, seconds: float, clock: SpeedClock) -> None:
    # Each cell repeats until it has run for an eighth of --seconds (at
    # least once); passes interleave the cells, so the repeats of a
    # short cell are spread over the run instead of bunched together.
    share = seconds / 8
    walls: Dict[str, List[float]] = {}
    pending = [(miner, backend) for miner in MINERS for backend in BACKENDS]
    while pending:
        for miner, backend in pending:
            cell = f"{miner}.{backend}"
            wall, code = run_cell(inputs, miner, backend, out)
            clock.tick()
            if check_cell(ledger, inputs, cell, backend, code, out):
                walls.setdefault(cell, []).append(wall)
            else:
                walls[cell] = []
        pending = [
            (miner, backend) for miner, backend in pending
            if walls[f"{miner}.{backend}"] and sum(walls[f"{miner}.{backend}"]) < share
        ]
    raw = {cell: median(values) for cell, values in walls.items() if values}
    for cell, value in raw.items():
        ledger.metric(f"{cell}_s", value / clock.slowdown, "s")
    if len(raw) == len(walls):
        scaled = [value / clock.slowdown for value in raw.values()]
        # The whole grid once; a typical mining call; the slowest one.
        ledger.metric("work_s", sum(scaled), "s")
        ledger.metric("op_ms", 1000.0 * geomean(scaled), "ms")
        ledger.metric("tail_ms", 1000.0 * max(scaled), "ms")
    ledger.note("samples", {cell: len(values) for cell, values in walls.items()})
    ledger.note("raw wall s (median)", raw)
    if "ista.bitint" in raw and "lcm.bitint" in raw:
        ledger.note(
            "fig5.crossover (ista.bitint_s / lcm.bitint_s, target <= 1)",
            raw["ista.bitint"] / raw["lcm.bitint"],
        )


def traced(ledger: Ledger, inputs: Inputs, out: Path, work: Path) -> None:
    """Every cell once untraced and once traced; the per-layer split."""
    walls = {}
    totals = {"kernels_s": 0.0, "kernels.calls": 0, "engine_s": 0.0, "around_s": 0.0,
              "trace_overhead_s": 0.0}
    shared = {"cli.startup_s": [], "data.load_s": []}
    kernel_seconds: Dict[str, float] = {}
    kernel_calls: Dict[str, int] = {}
    for miner in MINERS:
        for backend in BACKENDS:
            cell = f"{miner}.{backend}"
            wall, code = run_cell(inputs, miner, backend, out)
            if not check_cell(ledger, inputs, cell, backend, code, out):
                continue
            traced_wall, code, report = run_traced_cell(inputs, miner, backend, out, work)
            resolved = report["resolved"] if report else None
            # The proxy forwards everything unchanged, so the traced
            # cell must reproduce the untraced digest.
            if not check_cell(ledger, inputs, cell + " (traced)", backend, code, out, resolved):
                continue
            walls[cell] = wall
            shared["cli.startup_s"].append(report["startup_s"])
            shared["data.load_s"].append(report["load_s"])
            for name, value in report["kernel_seconds"].items():
                kernel_seconds[name] = kernel_seconds.get(name, 0.0) + value
            for name, value in report["kernel_calls"].items():
                kernel_calls[name] = kernel_calls.get(name, 0) + value
            interp = report["mine_s"] - report["kernels_s"]
            accounted = sum(report[k] for k in ("startup_s", "load_s", "recode_s", "mine_s", "report_s"))
            ledger.metric(f"{cell}.recode_s", report["recode_s"], "s")
            ledger.metric(f"{cell}.mine_s", report["mine_s"], "s")
            ledger.metric(f"{cell}.kernels_s", report["kernels_s"], "s")
            ledger.metric(f"{cell}.interp_s", interp, "s")
            ledger.metric(f"{cell}.report_s", report["report_s"], "s")
            ledger.metric(f"{cell}.unaccounted_s", traced_wall - accounted, "s")
            ledger.metric(f"{cell}.trace_overhead_s", traced_wall - wall, "s")
            totals["kernels_s"] += report["kernels_s"]
            totals["kernels.calls"] += sum(report["kernel_calls"].values())
            totals["engine_s"] += interp
            totals["around_s"] += traced_wall - report["mine_s"]
            totals["trace_overhead_s"] += traced_wall - wall
            ledger.metric(f"{cell}.intersections", report["intersections"], "count")
            if report["bounded_rows"]:
                ledger.metric(
                    f"{cell}.early_abort_ratio",
                    report["bounded_below"] / report["bounded_rows"], "ratio",
                )
            else:
                ledger.note(f"{cell}.early_abort_ratio", "dropped: no bounded kernel calls")
    if len(walls) == len(MINERS) * len(BACKENDS):
        for name, value in totals.items():
            ledger.metric(name, value, "count" if name.endswith("calls") else "s")
    for name, values in shared.items():
        if values:
            ledger.metric(name, median(values), "s")
    for name in sorted(kernel_calls):
        ledger.metric(f"kernels.{name}.s", kernel_seconds[name], "s")
        ledger.metric(f"kernels.{name}.calls", kernel_calls[name], "count")
    if "ista.bitint" in walls and "lcm.bitint" in walls:
        ledger.metric(
            "fig5.crossover", walls["ista.bitint"] / walls["lcm.bitint"], "ratio"
        )
