"""One traced ``repro-mine mine`` cell: the CLI run in-process, with
timing wrappers around the public calls it makes into each layer.

Usage (from ``mine_yeast.py``)::

    python perfbench/traced_mine.py SPAWNED REPORT.json mine FILE -s 16 ...

``SPAWNED`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide), so ``cli.startup_s`` covers
interpreter start and the ``repro.cli`` import.  The wrappers replace
``repro.cli.read_fimi`` (the ``data`` layer) and ``repro.cli.mine``
(which gets a :class:`repro.obs.Probe` for the recode / mine / report
phases and a kernel timing proxy as ``backend=``); everything else is
the unmodified CLI.  The spans are kept in memory and written to
``REPORT.json`` when the run ends.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    spawned = float(sys.argv[1])
    report_path = sys.argv[2]
    argv = sys.argv[3:]
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    sys.path.insert(0, str(here))

    import repro.cli as cli

    ready = time.monotonic()

    from common import make_timing_backend
    from repro.kernels import resolve_backend
    from repro.obs import Probe

    probe = Probe()
    seen = {}
    real_read, real_mine = cli.read_fimi, cli.mine

    def read_fimi(*args, **kwargs):
        start = time.monotonic()
        try:
            return real_read(*args, **kwargs)
        finally:
            seen["load_s"] = time.monotonic() - start

    def mine(db, smin, **kwargs):
        timing = make_timing_backend(resolve_backend(kwargs.get("backend")))
        seen["timing"] = timing
        seen["counters"] = kwargs.get("counters")
        kwargs["backend"] = timing
        kwargs["probe"] = probe
        try:
            return real_mine(db, smin, **kwargs)
        finally:
            seen["mined"] = time.monotonic()

    cli.read_fimi = read_fimi
    cli.mine = mine
    code = cli.main(argv)
    done = time.monotonic()

    phases = probe.metrics.snapshot()["histograms"]
    timing = seen["timing"]
    counters = seen["counters"]
    report = {
        "exit": code,
        "resolved": timing.name,
        "startup_s": ready - spawned,
        "load_s": seen["load_s"],
        "recode_s": phases["phase.recode.seconds"]["sum"],
        "mine_s": phases["phase.mine.seconds"]["sum"],
        # The probe's report phase builds the result; the CLI then
        # renders and writes it.
        "report_s": phases["phase.report.seconds"]["sum"] + (done - seen["mined"]),
        "kernels_s": timing.total_seconds,
        "kernel_seconds": dict(timing.seconds),
        "kernel_calls": dict(timing.calls),
        "bounded_rows": timing.bounded_rows,
        "bounded_below": timing.bounded_below,
        "intersections": counters.intersections if counters is not None else None,
    }
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
