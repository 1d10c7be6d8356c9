"""Command-line experiment runner.

Regenerate any (or all) of the paper's tables without pytest::

    python -m repro.bench              # everything
    python -m repro.bench e1 e3 e7     # a selection
    python -m repro.bench --list
    python -m repro.bench --csv DIR e3   # also write the rows as DIR/e3.csv

Regression gates against the committed ``BENCH_*.json`` baselines::

    python -m repro.bench --gate                 # e14 e15 e16
    python -m repro.bench --gate --update e14    # rewrite BENCH_E14.json

Observability (see docs/OBSERVABILITY.md)::

    python -m repro.bench --trace-out /tmp/e2.jsonl e2   # span dump + summary
    python -m repro.bench --metrics e1                   # metrics snapshot
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import Any, Mapping, Optional

from repro.bench import gate as G
from repro.bench.specs import EXPERIMENTS
from repro.obs import Observatory, set_capture
from repro.obs.export import summary_table, write_jsonl


def write_csv(
    directory: str, names: list[str], results: Optional[Mapping[str, Any]] = None
) -> list[str]:
    """Dump raw experiment rows as CSV files; returns the paths written.

    An experiment's CSV holds its first table's rows, when its driver
    returns row dicts.  ``results`` maps ids to that driver's result
    from a run already made; nothing is run here.
    """
    os.makedirs(directory, exist_ok=True)
    written = []
    for name in names:
        table = EXPERIMENTS[name].tables[0]
        if table.rows is not None:
            continue
        rows = (results or {}).get(name)
        if not rows:
            continue
        path = os.path.join(directory, f"{name}.csv")
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation tables.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: all)")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument("--csv", metavar="DIR",
                        help="also write raw rows as CSV files under DIR")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="record QRPC spans and write them as JSONL to PATH")
    parser.add_argument("--metrics", action="store_true",
                        help="print a metrics-registry snapshot after the run")
    parser.add_argument("--gate", action="store_true",
                        help="check the gated experiments (default: all of them) "
                             "against their committed BENCH_*.json baselines")
    parser.add_argument("--update", action="store_true",
                        help="with --gate: rewrite the baselines from this run")
    args = parser.parse_args(argv)

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.update and not args.gate:
        parser.error("--update needs --gate")

    gated = [name for name, spec in EXPERIMENTS.items() if spec.gate is not None]
    selected = args.experiments or (gated if args.gate else list(EXPERIMENTS))
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    if args.gate:
        ungated = [name for name in selected if name not in gated]
        if ungated:
            parser.error(f"no regression gate for: {', '.join(ungated)}")
        return G.run(selected, args.update)

    # Experiment drivers build their testbeds internally, so the CLI
    # cannot hand them an Observatory directly; instead install a
    # process-wide capture that build_testbed adopts.
    obs = None
    if args.trace_out or args.metrics:
        if args.trace_out:
            try:  # fail before the (possibly long) run, not after
                open(args.trace_out, "w").close()
            except OSError as exc:
                parser.error(f"cannot write --trace-out {args.trace_out}: {exc}")
        obs = Observatory(tracing=bool(args.trace_out))
        set_capture(obs)
    first_results = {}
    try:
        for name in selected:
            rendered = []
            for table in EXPERIMENTS[name].tables:
                result = table.run()
                first_results.setdefault(name, result)
                rendered.append(table.render(result))
            print("\n\n".join(rendered))
            print()
    finally:
        set_capture(None)
    if args.csv:
        for path in write_csv(args.csv, selected, first_results):
            print(f"wrote {path}")
    if obs is not None and args.trace_out:
        write_jsonl(obs.spans, args.trace_out)
        print(f"wrote {len(obs.spans)} spans to {args.trace_out}")
        print()
        print(summary_table(obs.spans))
    if obs is not None and args.metrics:
        print()
        print(obs.registry.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
