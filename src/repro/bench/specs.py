"""The experiment registry: every paper table and regression gate, once.

Each entry of :data:`EXPERIMENTS` declares one experiment id (the ids
``python -m repro.bench --list`` prints) as the tables it prints.  A
:class:`Table` holds the driver call that produces its input, its title,
and its ``(header, row -> cell)`` columns.  E14-E16 also carry a
:class:`Gate`: the fields ``python -m repro.bench --gate`` compares
against a committed ``BENCH_*.json`` baseline, and how.

Everything that prints or gates an experiment reads this table: the
CLI (:mod:`repro.bench.__main__`), the shape-asserting benchmarks under
``benchmarks/`` (which render the rows they already ran), and the gate
(:mod:`repro.bench.gate`).  Drivers are looked up on
:mod:`repro.bench.experiments` at call time, not bound here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Optional, Sequence

from repro.bench import experiments as E
from repro.bench.tables import format_seconds, format_table

Cell = Callable[[Any], Any]


@dataclass(frozen=True)
class Table:
    """One printed table: the driver call behind it and how to render it."""

    title: str
    columns: tuple[tuple[str, Cell], ...]
    #: The driver call; gates pass their gate-scale keyword arguments.
    run: Callable[..., Any]
    #: Turns a driver result that is not a list of row dicts into rows.
    #: ``None``: the driver returns row dicts, which ``--csv`` also writes.
    rows: Optional[Callable[[Any], Sequence]] = None

    def render(self, result: Any) -> str:
        rows = result if self.rows is None else self.rows(result)
        return format_table(
            self.title,
            [header for header, __ in self.columns],
            [[cell(row) for __, cell in self.columns] for row in rows],
        )


@dataclass(frozen=True)
class Gate:
    """A regression gate on an experiment's first table.

    Rows are matched to baseline rows by their ``key`` fields.  A row
    fails when a field in ``exact`` differs from its baseline, a field
    in ``equals`` differs from its constant, a field in ``growth``
    exceeds its baseline by more than :data:`repro.bench.gate.TOLERANCE`,
    or a field in ``bars`` exceeds its absolute bar.  A row missing
    from either side fails too.
    """

    baseline: str
    key: tuple[str, ...] = ()
    #: Fields written to the baseline, in order (``None``: every field).
    stored: Optional[tuple[str, ...]] = None
    exact: tuple[str, ...] = ()
    equals: tuple[tuple[str, Any], ...] = ()
    growth: tuple[str, ...] = ()
    bars: tuple[tuple[str, float], ...] = ()
    #: Driver keyword arguments at gate scale.
    kwargs: dict = field(default_factory=dict)
    #: The baseline is a JSON object holding the single gate row under
    #: this key (other keys are kept); ``None``: a JSON list of rows.
    section: Optional[str] = None


@dataclass(frozen=True)
class Experiment:
    tables: tuple[Table, ...]
    gate: Optional[Gate] = None


def _secs(key: str) -> Cell:
    return lambda row: format_seconds(row[key])


def _fmt(key: str, template: str) -> Cell:
    return lambda row: template.format(row[key])


def _cols(*specs: tuple[str, Any]) -> tuple[tuple[str, Cell], ...]:
    """Columns from ``(header, cell)`` pairs; a string cell is a row key."""
    return tuple(
        (header, itemgetter(cell) if isinstance(cell, str) else cell)
        for header, cell in specs
    )


def _grid(*headers: str) -> tuple[tuple[str, Cell], ...]:
    """Columns for rows that are already lists of cells."""
    return tuple((header, itemgetter(i)) for i, header in enumerate(headers))


def _by_metric(fields: Sequence[tuple[str, str, Callable[[Any], Any]]]):
    """Rows for drivers that return one dict per configuration: a row
    per ``(label, key, format)`` field, a column per configuration."""
    return lambda runs: [
        [label] + [fmt(run[key]) for run in runs.values()]
        for label, key, fmt in fields
    ]


_E6_FIELDS = [
    (name, name, str)
    for name in (
        "ops_applied", "server_events", "exports_committed", "exports_resolved",
        "exports_conflicted", "manual_conflicts_reported", "auto_reslotted",
        "replicas_clean",
    )
]

_E12_FIELDS = [
    (name, name, str)
    for name in (
        "edits_attempted", "edits_completed", "manual_conflicts",
        "server_version", "lock_denials",
    )
] + [("elapsed", "elapsed_s", format_seconds)]

EXPERIMENTS: dict[str, Experiment] = {
    "e1": Experiment((Table(
        "E1 - null QRPC vs blocking RPC per link",
        _cols(("link", "link"), ("blocking RPC", _secs("rpc_s")),
              ("QRPC", _secs("qrpc_s")), ("QRPC overhead", _secs("overhead_s")),
              ("overhead %", _fmt("overhead_pct", "{:.0f}%"))),
        lambda: E.run_e1_qrpc_latency(),
    ),)),
    "e2": Experiment((Table(
        "E2 - log-flush overhead ablation (flush on vs off)",
        _cols(("link", "link"), ("QRPC w/ flush", _secs("qrpc_with_flush_s")),
              ("QRPC w/o flush", _secs("qrpc_without_flush_s")),
              ("flush share", _fmt("flush_fraction_pct", "{:.1f}%"))),
        lambda: E.run_e2_log_overhead(),
    ),)),
    "e2b": Experiment((Table(
        "E2b - 10-QRPC burst on ethernet: group-commit windows",
        _cols(("window", lambda r: "per-request" if r["window_s"] == 0
               else format_seconds(r["window_s"])),
              ("burst completion", _secs("burst_completion_s")),
              ("log flushes", "flushes"), ("flush seconds", _secs("flush_seconds"))),
        lambda: E.run_e2b_group_commit(),
    ),)),
    "e3": Experiment((Table(
        "E3 - local cached invocation vs RPC per link",
        _cols(("link", "link"), ("local invoke", _secs("local_invoke_s")),
              ("RPC", _secs("rpc_s")), ("local speedup", _fmt("speedup", "{:.1f}x"))),
        lambda: E.run_e3_local_vs_rpc(),
    ),)),
    "e4": Experiment((Table(
        "E4 - N per-operation QRPCs vs one shipped RDO",
        _cols(("link", "link"), ("N", "n_ops"), ("N QRPCs", _secs("per_op_qrpc_s")),
              ("shipped RDO", _secs("shipped_rdo_s")),
              ("ship speedup", _fmt("speedup", "{:.1f}x"))),
        lambda: E.run_e4_migration(),
    ),)),
    "e5": Experiment((
        Table(
            "E5 - read a 12-message folder (scan + read + mark read)",
            _cols(("link", "link"), ("Rover cold", _secs("rover_cold_s")),
                  ("Rover prefetched", _secs("rover_prefetched_s")),
                  ("blocking reader", _secs("blocking_s")),
                  ("warm speedup", _fmt("warm_speedup_vs_blocking", "{:.0f}x"))),
            lambda: E.run_e5_mail(),
        ),
        Table(
            "E5b - disconnected mail session (prefetched, then link down)",
            _grid("metric", "value"),
            lambda: E.run_e5_disconnected_mail(),
            rows=dict.items,
        ),
    )),
    "e6": Experiment((Table(
        "E6 - two disconnected replicas, 30 ops (resolver ablation)",
        _grid("metric", "type-specific+reslot", "type-specific", "no resolver"),
        lambda: {
            resolver: E.run_e6_calendar(resolver=resolver)
            for resolver in ("calendar", "calendar-strict", "keep-server")
        },
        rows=_by_metric(_E6_FIELDS),
    ),)),
    "e7": Experiment((
        Table(
            "E7 - browse 6 pages, 30s think time (per-user-session totals)",
            _cols(("link", "link"),
                  ("blocking session", _secs("blocking_session_s")),
                  ("blocking wait", _secs("blocking_user_wait_s")),
                  ("click-ahead session", _secs("clickahead_session_s")),
                  ("click-ahead wait", _secs("clickahead_user_wait_s")),
                  ("prefetch session", _secs("prefetch_session_s")),
                  ("prefetch wait", _secs("prefetch_user_wait_s"))),
            lambda: E.run_e7_clickahead(),
        ),
        Table(
            "E7b - prefetch threshold sweep (cslip-14.4, 30s think time)",
            _cols(("threshold", _secs("threshold_s")),
                  ("user wait", _secs("user_wait_s")),
                  ("prefetches", "prefetches"), ("bytes on wire", "bytes_on_wire")),
            lambda: E.run_e7_threshold_sweep(),
        ),
    )),
    "e8": Experiment((
        Table(
            "E8 - urgent QRPC behind a 12-object bulk queue (cslip-14.4)",
            _grid("metric", "priority scheduler", "FIFO ablation"),
            lambda: {
                "priority": E.run_e8_priority(),
                "fifo": E.run_e8_priority(fifo_only=True),
            },
            rows=_by_metric([
                ("urgent completion", "urgent_done_s", format_seconds),
                ("first bulk completion", "first_bulk_done_s", format_seconds),
                ("last bulk completion", "last_bulk_done_s", format_seconds),
                ("all delivered", "all_done", str),
            ]),
        ),
        Table(
            "E8b - direct link down 10 min; queued SMTP route available",
            _grid("configuration", "QRPC completion after issue"),
            lambda: E.run_e8_relay_fallback(),
            rows=lambda result: [
                ["direct link only", format_seconds(result["direct_only_latency_s"])],
                ["with SMTP relay route", format_seconds(result["with_relay_latency_s"])],
            ],
        ),
    )),
    "e9": Experiment((Table(
        "E9 - disconnect/work/reconnect cycle, all three applications",
        _grid("metric", "value"),
        lambda: E.run_e9_disconnected(),
        rows=dict.items,
    ),)),
    "e10": Experiment((Table(
        "E10 - mail prefetch with/without wire compression",
        _cols(("link", "link"), ("raw bytes", "raw_bytes"),
              ("zlib bytes", "compressed_bytes"), ("raw time", _secs("raw_time_s")),
              ("zlib time", _secs("compressed_time_s")),
              ("time saved", _fmt("time_saved_pct", "{:.0f}%"))),
        lambda: E.run_e10_compression(),
    ),)),
    "e11": Experiment((Table(
        "E11 - drain 12 queued imports on reconnect (cslip-14.4)",
        _cols(("batch size", lambda r: "none" if r["batch_max"] == 1 else r["batch_max"]),
              ("drain time", _secs("drain_time_s")),
              ("wire exchanges", "exchanges"), ("batches", "batches")),
        lambda: E.run_e11_batching(),
    ),)),
    "e12": Experiment((Table(
        "E12 - 4 clients x 2 edits of one field (optimistic vs locks)",
        _grid("metric", "optimistic", "check-out locks"),
        lambda: E.run_e12_locking(),
        rows=_by_metric(_E12_FIELDS),
    ),)),
    "e13": Experiment((Table(
        "E13 - availability under seeded chaos (mail workload)",
        _cols(("config", "config"), ("sends", "sends"), ("acked", "acked"),
              ("mean ack", _secs("mean_ack_s")), ("p95 ack", _secs("p95_ack_s")),
              ("retx", "retransmissions"), ("faults", "faults_injected"),
              ("corrupt det", "corrupt_detected"), ("violations", "violations")),
        lambda: E.run_e13_chaos(),
    ),)),
    "e14": Experiment(
        (Table(
            "E14 - bytes-on-wire: log compaction + delta shipping",
            _cols(("link", "link"), ("config", "config"),
                  ("queued", "queued_at_reconnect"), ("bytes", "bytes_wire"),
                  ("drain", _secs("drain_s")), ("compacted", "ops_compacted"),
                  ("delta saved", "delta_bytes_saved"),
                  ("marshal hits", "marshal_cache_hits"), ("violations", "violations")),
            lambda **kw: E.run_e14_wire(**kw),
        ),),
        # Bytes-on-wire must not creep back up.
        Gate(
            "BENCH_E14.json",
            key=("link", "config"),
            stored=("link", "config", "bytes_wire", "drain_s", "ops_compacted",
                    "violations"),
            equals=(("violations", 0),),
            growth=("bytes_wire",),
        ),
    ),
    "e15": Experiment(
        (Table(
            "E15 - fleet telemetry: shipping overhead + aggregation exactness",
            _cols(("config", "config"), ("clients", "clients"),
                  ("wire bytes", "wire_bytes"), ("telemetry", "telemetry_bytes"),
                  ("overhead", _fmt("overhead_pct", "{:.2f}%")),
                  ("sent", "reports_sent"), ("acked", "reports_acked"),
                  ("dups", "duplicates"), ("gaps", "open_gaps"), ("exact", "exact")),
            lambda **kw: E.run_e15_fleet(**kw),
        ),),
        # The telemetry tax must not creep back up, aggregation must stay
        # exact, and no sequence gap may stay open.  The telemetry-off
        # control row has 0% overhead by construction, so its bounds hold.
        Gate(
            "BENCH_E15.json",
            key=("config",),
            stored=("config", "clients", "telemetry_bytes", "foreground_bytes",
                    "overhead_pct", "reports_sent", "duplicates", "open_gaps",
                    "exact"),
            equals=(("exact", True), ("open_gaps", 0)),
            growth=("overhead_pct",),
            bars=(("overhead_pct", 5.0),),  # the E15 acceptance bar
            # 30 clients per link class cover every class and the
            # fold/dup/reorder paths; per-client byte economics are
            # scale-invariant.
            kwargs={"n_clients": 120},
        ),
    ),
    "e16": Experiment(
        (Table(
            "E16 - CPU hot path: drain throughput + codec cost",
            _cols(("clients", "clients"), ("acked", "ops_acked"),
                  ("ops/s", "ops_per_s"), ("wall", _secs("drain_wall_s")),
                  ("cpu x cal", _fmt("drain_cpu_x_cal", "{:.0f}x")),
                  ("flushes", "log_flushes"), ("grp commits", "group_commits"),
                  ("fsyncs saved", "fsyncs_saved"),
                  ("compactions", "kernel_compactions")),
            lambda **kw: E.run_e16_speed(**kw),
        ),),
        # Simulation fields are pure functions of the scenario seed, so
        # any drift is a semantic change.  CPU is normalized by the
        # in-process calibration loop so the baseline transfers across
        # hosts.
        Gate(
            "BENCH_E16.json",
            exact=("clients", "ops_submitted", "ops_acked", "done_at_s",
                   "log_appends", "log_flushes", "group_commits", "fsyncs_saved",
                   "bytes_sent", "messages_sent", "codec_wire_bytes"),
            growth=("drain_cpu_x_cal", "encode_cpu_x_cal", "decode_cpu_x_cal",
                    "size_cpu_x_cal"),
            # 125 clients per link class, the group-commit window and a
            # kernel compaction, in a few seconds.
            kwargs={"n_clients": 500},
            # The 10k-client before/after record sits beside the gate row.
            section="gate",
        ),
    ),
    "f1": Experiment((Table(
        "F1 - import latency vs object size",
        _cols(("link", "link"), ("size", lambda r: f"{r['size_bytes'] // 1024}KB"),
              ("import", _secs("import_s")),
              ("analytic transfer", _secs("analytic_tx_s"))),
        lambda: E.run_f1_size_sweep(),
    ),)),
    "f2": Experiment((Table(
        "F2 - mail-read availability vs link duty cycle (cslip-14.4)",
        _cols(("link duty cycle", _fmt("duty_cycle_pct", "{:.0f}%")),
              ("Rover availability", _fmt("rover_availability_pct", "{:.0f}%")),
              ("conventional client", _fmt("blocking_availability_pct", "{:.0f}%"))),
        lambda: E.run_f2_availability(),
    ),)),
    "f3": Experiment((Table(
        "F3 - N clients hoarding at once (wavelan-2Mb cell)",
        _cols(("clients", "clients"), ("shared cell", _secs("shared_cell_s")),
              ("dedicated links", _secs("dedicated_links_s")),
              ("slowdown", _fmt("slowdown", "{:.1f}x"))),
        lambda: E.run_f3_shared_cell(),
    ),)),
}
