"""E6 — Rover Ical: concurrent updates and type-specific resolution.

Two replicas work disconnected against one shared calendar and
reconcile at the home server.  Shape asserted: with the type-specific
resolver every overlapping update is absorbed (auto re-slot included)
and both replicas converge to committed state; the ablations (no
re-slot / no type-specific resolver at all) leave manual conflicts and
dirty replicas — the Lotus-Notes-style outcome the paper contrasts
against.
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_e6_calendar
from repro.bench.specs import EXPERIMENTS


def test_e6_calendar_resolution(benchmark):
    full = benchmark.pedantic(
        lambda: run_e6_calendar(resolver="calendar"), rounds=1, iterations=1
    )
    strict = run_e6_calendar(resolver="calendar-strict")
    none = run_e6_calendar(resolver="keep-server")
    record_report(EXPERIMENTS["e6"].tables[0].render(
        {"calendar": full, "calendar-strict": strict, "keep-server": none}
    ))
    # Full resolver: "many conflicts can be resolved automatically" —
    # concurrent exports merged, double bookings repaired, and strictly
    # fewer conflicts reach the user than under the ablations.  (A
    # double booking whose alternates are all taken legitimately stays
    # manual.)
    assert full["exports_resolved"] >= 1  # concurrent exports did happen
    assert full["auto_reslotted"] >= 1    # and double bookings were repaired
    assert full["manual_conflicts_reported"] < strict["manual_conflicts_reported"]
    # Without auto re-slot every double booking surfaces to the user.
    assert strict["manual_conflicts_reported"] >= 1
    assert strict["replicas_clean"] is False
    # Without any type-specific resolution, at least as many conflicts
    # and no automatic merges at all.
    assert none["manual_conflicts_reported"] >= strict["manual_conflicts_reported"]
    assert none["exports_resolved"] == 0
    # No updates are silently lost in any mode: the server always holds
    # at least the events the cleanly-committed side produced.
    for result in (full, strict, none):
        assert result["server_events"] > 0
