"""Rover QRPC benchmark: one command, three workloads.

    python3 perfbench/run.py --workload drain --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One process runs one workload (``--workload all``, the
default, runs each workload in a process of its own).  It repeats the
workload (set-up, then the timed phase) until ``--seconds`` of wall
time have passed, checks every repetition's outputs, and prints each
end-to-end metric with its unit and sample count; the last line of
standard output is one JSON object with the gated metrics.  ``--trace 1`` adds a
traced repetition and prints the per-layer ledger instead.  See
``perfbench/README.md`` for the metrics and why each workload exists.

Exit status: 0 when every check passed, 1 when a correctness or
determinism check failed, 2 when the program could not be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Virtual-time, byte and count figures of earlier runs of the same
#: sources, keyed by source fingerprint: the cross-process half of the
#: determinism check.
STATE = HERE / ".state" / "determinism.json"

#: Fewest repetitions in a run, so the medians have something to work with.
MIN_REPEATS = 3


@dataclass
class Sample:
    """One repetition of a workload."""

    setup_s: float
    wall_s: float
    cpu_s: float
    summary: dict
    counts: dict
    violations: list
    spans: dict = field(default_factory=dict)
    no_primary_s: float = 0.0

    @property
    def acked(self) -> int:
        return self.summary["acked"]

    @property
    def cpu_us_per_op(self) -> float:
        return self.cpu_s / max(1, self.acked) * 1e6

    @property
    def ops_per_s(self) -> float:
        return self.acked / self.wall_s

    def deterministic(self) -> dict:
        """Everything that must repeat exactly for one seed."""
        figures = {
            key: self.summary[key]
            for key in ("qrpc_p50_s", "qrpc_p99_s", "makespan_s")
        }
        figures["ha.no_primary_s"] = self.no_primary_s
        figures.update(self.counts)
        return figures


def repeat_once(cls, seed: int, scale: float, tracer=None, spans: bool = False) -> Sample:
    """Set up and run one repetition; ``tracer`` accounts the timed phase."""
    from repro.speed.measure import Stopwatch

    gc.collect()
    with Stopwatch() as setup:
        workload = cls(seed, scale, trace=spans)
    if tracer is not None:
        tracer.reset()
    with Stopwatch() as timed:
        workload.drive()
    sample = Sample(
        setup_s=setup.wall_s,
        wall_s=timed.wall_s,
        cpu_s=timed.cpu_s,
        summary=workload.ledger.summary(),
        counts=workload.counts(),
        violations=workload.check(),
        no_primary_s=workload.no_primary_s,
    )
    if spans:
        sample.spans = span_waits(workload.bed.obs.tracer.spans)
    return sample


def span_waits(spans) -> dict:
    from ledger import percentile

    durations: dict[str, list[float]] = {}
    for span in spans:
        if span.end is not None:
            durations.setdefault(span.name, []).append(span.end - span.start)
    for values in durations.values():
        values.sort()
    queue = durations.get("queue.wait", [])
    transmit = durations.get("link.transmit", [])
    return {
        "scheduler.queue_wait_p50_s": percentile(queue, 0.50),
        "scheduler.queue_wait_p99_s": percentile(queue, 0.99),
        "simnet.transmit_wait_p50_s": percentile(transmit, 0.50),
    }


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def source_fingerprint() -> str:
    """Hash of the program and benchmark sources."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def diff_figures(expected: dict, seen: dict) -> list[str]:
    return [
        f"{key}: {expected.get(key)!r} then {seen.get(key)!r}"
        for key in sorted(set(expected) | set(seen))
        if expected.get(key) != seen.get(key)
    ]


def check_across_runs(key: str, figures: dict) -> list[str]:
    """Compare with the figures an earlier process recorded for the
    same sources and inputs; record them if none did."""
    fingerprint = source_fingerprint()
    try:
        recorded = json.loads(STATE.read_text())
    except (FileNotFoundError, ValueError):
        recorded = {}
    table = recorded.get(fingerprint, {})
    if key in table:
        return diff_figures(table[key], figures)
    table[key] = figures
    STATE.parent.mkdir(exist_ok=True)
    partial = STATE.with_suffix(".tmp")
    partial.write_text(json.dumps({fingerprint: table}, sort_keys=True))
    os.replace(partial, STATE)
    return []


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(samples: list[Sample]) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count), medians over repetitions."""
    first = samples[0].summary
    repeats = len(samples)
    ops = first["submitted"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wire = samples[0].counts["simnet.link_bytes"]
    return {
        "ops_per_s": (statistics.median(s.ops_per_s for s in samples), "ops/s", repeats),
        "cpu_us_per_op": (
            statistics.median(s.cpu_us_per_op for s in samples), "us", repeats
        ),
        "setup_s": (statistics.median(s.setup_s for s in samples), "s", repeats),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "qrpc_p50_s": (first["qrpc_p50_s"], "s", first["acked"]),
        "qrpc_p99_s": (first["qrpc_p99_s"], "s", first["acked"]),
        "makespan_s": (first["makespan_s"], "s", first["acked"]),
        "wire_bytes_per_op": (wire / max(1, first["acked"]), "B", first["acked"]),
        "acked_ratio": (first["acked"] / max(1, ops), "ratio", ops),
        "failed_ratio": (first["failed_ratio"], "ratio", ops),
    }


def per_layer(traced: Sample, spanned: Sample, tracer, untraced_cpu_us: float) -> dict:
    """name -> (value, unit) for the per-layer ledger."""
    ops = max(1, traced.acked)
    counts = traced.counts
    calls = tracer.calls
    entries = tracer.entries
    raised = tracer.raised

    def per_op(value: float) -> float:
        return value / ops

    def self_us(layer: str) -> tuple[float, str]:
        return (tracer.self_s[layer] / ops * 1e6, "us/op")

    lookups = counts["cache.hits"] + counts["cache.misses"]
    diffs = entries["repro.perf.delta.diff_value"]
    applied = entries["repro.perf.delta.apply_delta"] - raised["repro.perf.delta.apply_delta"]
    return {
        "sim.events_per_op": (per_op(counts["sim.events"]), "count/op"),
        "sim.compactions": (counts["sim.compactions"], "count"),
        "sim.self_us_per_op": self_us("sim"),
        "codec.encode_calls_per_op": (
            per_op(
                entries["repro.net.message.marshal"]
                + entries["repro.net.message.Premarshalled.__init__"]
            ),
            "count/op",
        ),
        "codec.encode_bytes_per_op": (per_op(tracer.bytes["encode"]), "B/op"),
        "codec.decode_calls_per_op": (
            per_op(entries["repro.net.message.unmarshal"]), "count/op"
        ),
        "codec.decode_bytes_per_op": (per_op(tracer.bytes["decode"]), "B/op"),
        "codec.self_us_per_op": self_us("codec"),
        "transport.messages_per_op": (per_op(counts["transport.messages"]), "count/op"),
        "transport.bytes_per_op": (per_op(counts["transport.bytes"]), "B/op"),
        "transport.corrupt_frames": (counts["transport.corrupt_frames"], "count"),
        "transport.self_us_per_op": self_us("transport"),
        "simnet.frames_per_op": (
            per_op(calls["repro.net.simnet.Link.send"]), "count/op"
        ),
        "simnet.link_bytes_per_op": (per_op(counts["simnet.link_bytes"]), "B/op"),
        "simnet.transmit_wait_p50_s": (spanned.spans["simnet.transmit_wait_p50_s"], "s"),
        "simnet.self_us_per_op": self_us("simnet"),
        "scheduler.dispatches_per_op": (
            per_op(
                calls["repro.net.scheduler.NetworkScheduler._dispatch"]
                + calls["repro.net.scheduler.NetworkScheduler._dispatch_batch"]
            ),
            "count/op",
        ),
        "scheduler.retransmissions": (counts["scheduler.retransmissions"], "count"),
        "scheduler.failed": (counts["scheduler.failed"], "count"),
        "scheduler.queue_wait_p50_s": (spanned.spans["scheduler.queue_wait_p50_s"], "s"),
        "scheduler.queue_wait_p99_s": (spanned.spans["scheduler.queue_wait_p99_s"], "s"),
        "scheduler.self_us_per_op": self_us("scheduler"),
        "access.resubmits": (counts["access.resubmits"], "count"),
        "access.self_us_per_op": self_us("access"),
        "log.appends_per_op": (per_op(counts["log.appends"]), "count/op"),
        "log.flushes_per_op": (per_op(counts["log.flushes"]), "count/op"),
        "log.group_commits": (counts["log.group_commits"], "count"),
        "log.fsyncs_saved": (counts["log.fsyncs_saved"], "count"),
        "log.self_us_per_op": self_us("log"),
        "server.requests_per_op": (per_op(counts["server.requests"]), "count/op"),
        "server.duplicates_suppressed": (counts["server.duplicates_suppressed"], "count"),
        "server.conflicts_resolved": (counts["server.conflicts_resolved"], "count"),
        "server.self_us_per_op": self_us("server"),
        "cache.hits": (counts["cache.hits"], "count"),
        "cache.misses": (counts["cache.misses"], "count"),
        "cache.hit_ratio": (counts["cache.hits"] / lookups if lookups else 0.0, "ratio"),
        "cache.self_us_per_op": self_us("cache"),
        "interp.calls_per_op": (
            per_op(calls["repro.core.interpreter.SafeInterpreter.invoke"]), "count/op"
        ),
        "interp.self_us_per_op": self_us("interp"),
        "compact.ops_compacted_ratio": (
            counts["compact.ops_compacted"] / max(1, counts["ops.submitted"]), "ratio"
        ),
        "compact.self_us_per_op": self_us("compact"),
        "delta.bytes_saved_per_op": (per_op(counts["delta.bytes_saved"]), "B/op"),
        "delta.ship_ratio": (applied / diffs if diffs else 0.0, "ratio"),
        "delta.self_us_per_op": self_us("delta"),
        "ha.ship_frames_per_op": (
            per_op(calls["repro.ha.group.ReplicaAgent._ship_to"]), "count/op"
        ),
        "ha.ship_bytes_per_op": (per_op(counts["ha.mesh_bytes"]), "B/op"),
        "ha.elections": (counts["ha.elections"], "count"),
        "ha.no_primary_s": (traced.no_primary_s, "s"),
        "ha.self_us_per_op": self_us("ha"),
        "obs.series": (counts["obs.series"], "count"),
        "obs.self_us_per_op": self_us("obs"),
        "trace.overhead_ratio": (traced.cpu_us_per_op / untraced_cpu_us, "ratio"),
    }


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------


def repeat_for(cls, seed: int, scale: float, seconds: float) -> list[Sample]:
    from repro.speed.measure import Stopwatch

    samples: list[Sample] = []
    elapsed = 0.0
    while len(samples) < MIN_REPEATS or elapsed < seconds:
        with Stopwatch() as clock:
            samples.append(repeat_once(cls, seed, scale))
        elapsed += clock.wall_s
    return samples


def traced_run(cls, seed: int, scale: float, untraced: list[Sample]):
    """The traced repetition, a repetition after it, and one with the
    program's own virtual-time spans on.  Returns the three samples,
    the tracer and any determinism findings."""
    from layers import LayerTracer

    tracer = LayerTracer()
    tracer.install()
    try:
        traced = repeat_once(cls, seed, scale, tracer=tracer)
    finally:
        tracer.remove()
    after = repeat_once(cls, seed, scale)
    spanned = repeat_once(cls, seed, scale, spans=True)
    reference = untraced[0].deterministic()
    problems = [
        f"traced repetition: {line}"
        for line in diff_figures(reference, traced.deterministic())
    ]
    problems += [
        f"repetition after tracing: {line}"
        for line in diff_figures(reference, after.deterministic())
    ]
    return traced, after, spanned, tracer, problems


def run_all(args) -> int:
    """Every workload in a child process of its own, so each one's peak
    memory is its own; the last line combines their results."""
    from scenarios import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        child = subprocess.run(
            [
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", str(args.scale),
            ],
            capture_output=True,
            text=True,
        )
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"FAIL {name}: exited with status {child.returncode} and no result")
            correct = False
            continue
        correct = correct and report["correct"]
        attempted += report["attempted"]
        failed += report["failed"]
        for metric, figure in report["metrics"].items():
            metrics[f"{name}.{metric}"] = figure
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload size relative to the benchmark's (smoke tests)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from repro.speed.measure import calibration_seconds
    from scenarios import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    cls = WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    print(
        f"perfbench {args.workload} seed={args.seed} scale={args.scale} "
        f"trace={args.trace} nproc={os.cpu_count()} "
        f"python={platform.python_version()} "
        f"calibration_s={calibration_seconds():.6f}"
    )
    seconds = args.seconds / 2 if args.trace else args.seconds
    samples = repeat_for(cls, args.seed, args.scale, seconds)

    problems = [
        f"check: {violation}" for s in samples for violation in s.violations
    ]
    reference = samples[0].deterministic()
    for index, sample in enumerate(samples[1:], start=2):
        problems += [
            f"determinism bug, repetition {index}: {line}"
            for line in diff_figures(reference, sample.deterministic())
        ]
    key = f"{args.workload}:seed={args.seed}:scale={args.scale}"
    problems += [
        f"determinism bug, earlier process: {line}"
        for line in check_across_runs(key, reference)
    ]

    attempted = sum(s.summary["submitted"] for s in samples)
    failed = sum(s.summary["failed"] for s in samples)
    if args.trace:
        traced, after, spanned, tracer, found = traced_run(
            cls, args.seed, args.scale, samples
        )
        problems += [f"determinism bug, {line}" for line in found]
        problems += [f"check: {v}" for s in (traced, after, spanned) for v in s.violations]
        untraced_cpu = statistics.median(s.cpu_us_per_op for s in samples + [after])
        ledger = per_layer(traced, spanned, tracer, untraced_cpu)
        counted = {
            name: value
            for name, (value, unit) in ledger.items()
            if unit != "us/op" and name != "trace.overhead_ratio"
        }
        problems += [
            f"determinism bug, earlier traced process: {line}"
            for line in check_across_runs(f"{key}:per-layer", counted)
        ]
        print(f"per-layer ledger ({traced.acked} acked QRPCs in the traced repetition)")
        for name, (value, unit) in ledger.items():
            print(f"  {name:32s} {value:>16.6g} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in ledger.items()}
    else:
        figures = end_to_end(samples)
        print(f"end-to-end ({len(samples)} repetitions; n = samples behind each value)")
        for name, (value, unit, n) in figures.items():
            print(f"  {name:20s} {value:>16.6g} {unit:6s} n={n}")
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _n) in figures.items()
            if name != "failed_ratio"
        }

    for line in problems:
        print(f"FAIL {line}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
