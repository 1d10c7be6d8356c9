"""Regression gates: compare an experiment's rows to its committed baseline.

One checker serves every :class:`~repro.bench.specs.Gate`; what it
compares comes from the gate's declaration in :mod:`repro.bench.specs`.
The drivers are deterministic in virtual time, so drift in an exact
field is a behaviour change, not noise.  Run it as::

    python -m repro.bench --gate e14 e15 e16
    python -m repro.bench --gate --update e14    # rewrite BENCH_E14.json
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Optional

from repro.bench.specs import EXPERIMENTS, Gate

TOLERANCE = 0.10  # >10% growth over the baseline fails

#: Where the committed ``BENCH_*.json`` baselines live: the repository
#: root above ``src/``, whatever the working directory.
REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)


def _label(gate: Gate, row: dict, name: str) -> str:
    return "/".join(str(row[k]) for k in gate.key) or name


def load_baseline(gate: Gate, root: str) -> Optional[list[dict]]:
    """The baseline rows under ``root``, or ``None`` if there is no file."""
    path = os.path.join(root, gate.baseline)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        doc = json.load(f)
    return doc if gate.section is None else [doc[gate.section]]


def check(name: str, gate: Gate, rows: list[dict], baseline: list[dict]) -> list[str]:
    """Every way ``rows`` fail the gate against ``baseline``; empty if none.

    Prints each growth-bounded field beside its baseline and allowance.
    """
    failures = []
    base_by_key = {tuple(b[k] for k in gate.key): b for b in baseline}
    for row in rows:
        label = _label(gate, row, name)
        base = base_by_key.get(tuple(row[k] for k in gate.key))
        if base is None:
            failures.append(f"{label}: no baseline row (run --update)")
            continue
        for field in gate.exact:
            if row[field] != base[field]:
                failures.append(
                    f"{label}: {field} {row[field]!r} != baseline {base[field]!r} "
                    "(a semantic change; commit a new baseline deliberately)"
                )
        for field, want in gate.equals:
            if row[field] != want:
                failures.append(f"{label}: {field} is {row[field]!r}, must be {want!r}")
        for field in gate.growth:
            allowed = base[field] * (1.0 + TOLERANCE)
            print(f"{label}: {field} {row[field]} "
                  f"(baseline {base[field]}, allowed {allowed:.3f})")
            if row[field] > allowed:
                failures.append(
                    f"{label}: {field} {row[field]} exceeds baseline {base[field]} "
                    f"by more than {TOLERANCE:.0%} (allowed {allowed:.3f})"
                )
        for field, bar in gate.bars:
            if row[field] > bar:
                failures.append(f"{label}: {field} {row[field]} crosses the bar {bar}")
    produced = {tuple(r[k] for k in gate.key) for r in rows}
    for key, base in base_by_key.items():
        if key not in produced:
            failures.append(f"{_label(gate, base, name)}: baseline row no longer produced")
    return failures


def write_baseline(gate: Gate, rows: list[dict], root: str) -> str:
    """Rewrite the baseline from ``rows``; returns the path written."""
    stored = [
        row if gate.stored is None else {k: row[k] for k in gate.stored}
        for row in rows
    ]
    path = os.path.join(root, gate.baseline)
    doc: Any = stored
    if gate.section is not None:
        (row,) = stored  # a section holds the single gate row
        doc = {}
        if os.path.exists(path):
            with open(path) as f:
                doc = json.load(f)
        doc[gate.section] = row
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return path


def run(names: list[str], update: bool) -> int:
    """Run each named gate at gate scale.

    Returns 2 if a baseline is missing, else 1 if any gate fails, else 0.
    """
    status = 0
    for name in names:
        gate, table = EXPERIMENTS[name].gate, EXPERIMENTS[name].tables[0]
        rows = table.run(**gate.kwargs)
        if update:
            path = write_baseline(gate, rows, REPO_ROOT)
            print(f"wrote {len(rows)} baseline row(s) to {path}")
            continue
        print(table.render(rows))
        print()
        baseline = load_baseline(gate, REPO_ROOT)
        if baseline is None:
            path = os.path.join(REPO_ROOT, gate.baseline)
            print(f"missing baseline {path}; run with --update first", file=sys.stderr)
            status = 2
            continue
        failures = check(name, gate, rows, baseline)
        if failures:
            status = max(status, 1)
            print(f"\n{name} regression gate FAILED:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
        else:
            print(f"\n{name} regression gate passed.")
        print()
    return status
