"""End-to-end benchmark of the closed-set miner, its durable ingest and
its query daemon.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mine-yeast --seed 1 --seconds 10 --trace 0

Workloads: ``mine-yeast``, ``ingest-stream``, ``serve-queries`` (see
``perfbench/README.md``).  Inputs are generated from ``--seed``; every
run checks its outputs.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its
per-layer metrics (``--trace 1``), every one of them on every workload;
the line before it holds everything else the run measured or noted.
The exit code is 0 only when every operation succeeded; a run that
could not measure a declared metric prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback

from common import ROOT, SRC, Ledger

WORKLOADS = ("mine-yeast", "ingest-stream", "serve-queries")


def declared_metrics(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, ledger: Ledger, seed: int, seconds: float, trace: bool, work) -> None:
    if name == "mine-yeast":
        import mine_yeast as workload
    elif name == "ingest-stream":
        import ingest_stream as workload
    else:
        import serve_queries as workload
    workload.run(ledger, seed, seconds, trace, work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if not repro.__file__.startswith(str(SRC)):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # A termination request unwinds like an error, so every child
    # process is stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    declared = declared_metrics(bool(args.trace))
    ledger = Ledger()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run_workload(args.workload, ledger, args.seed, args.seconds, bool(args.trace), work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if ledger.attempted:
        ledger.metric("ops_ok_ratio", 1.0 - ledger.failed / ledger.attempted, "ratio")
    extra = {n: v for n, (v, _) in ledger.metrics.items() if n not in declared}
    missing = sorted(set(declared) - set(ledger.metrics))
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failures": ledger.failures,
        "notes": ledger.details,
        "undeclared_metrics": extra,
        "missing_metrics": missing,
    }, sort_keys=True, default=str))
    if missing:
        # Every run reports every declared metric, or no result at all.
        print(f"perfbench: {args.workload} measured no {', '.join(missing)}", file=sys.stderr)
        return 1
    print(ledger.result_line(declared))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
