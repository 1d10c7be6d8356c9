"""The shared regression gate (python -m repro.bench --gate)."""

import json
import os
import shutil

import pytest

from repro.bench import gate as G
from repro.bench.__main__ import main
from repro.bench.specs import EXPERIMENTS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

E14, E15, E16 = (EXPERIMENTS[name].gate for name in ("e14", "e15", "e16"))


def _committed(name):
    with open(os.path.join(REPO_ROOT, name)) as f:
        return json.load(f)


def _e14_rows():
    """The committed E14 rows plus driver fields the baseline leaves out."""
    return [
        dict(row, queued_at_reconnect=33, delta_bytes_saved=0, violation_detail=[])
        for row in _committed("BENCH_E14.json")
    ]


def _e15_rows():
    return [
        dict(row, wire_bytes=1, reports_acked=row["reports_sent"], mismatched=0)
        for row in _committed("BENCH_E15.json")
    ]


def _e16_row():
    return dict(_committed("BENCH_E16.json")["gate"])


def _edit(rows, index, **changes):
    rows = [dict(row) for row in rows]
    rows[index].update(changes)
    return rows


def test_committed_rows_pass():
    assert G.check("e14", E14, _e14_rows(), _committed("BENCH_E14.json")) == []
    assert G.check("e15", E15, _e15_rows(), _committed("BENCH_E15.json")) == []
    assert G.check("e16", E16, [_e16_row()], [_committed("BENCH_E16.json")["gate"]]) == []


def test_growth_within_the_tolerance_passes():
    base = _committed("BENCH_E14.json")
    rows = _edit(_e14_rows(), 0, bytes_wire=int(base[0]["bytes_wire"] * 1.09))
    assert G.check("e14", E14, rows, base) == []


def test_growth_past_the_tolerance_fails():
    base = _committed("BENCH_E14.json")
    rows = _edit(_e14_rows(), 2, bytes_wire=int(base[2]["bytes_wire"] * 1.11))
    failures = G.check("e14", E14, rows, base)
    assert len(failures) == 1
    assert failures[0].startswith("cslip-14.4k/compaction+delta: bytes_wire")


def test_exact_field_drift_fails():
    row = _e16_row()
    row["done_at_s"] += 0.5
    failures = G.check("e16", E16, [row], [_committed("BENCH_E16.json")["gate"]])
    assert len(failures) == 1
    assert failures[0].startswith("e16: done_at_s")


def test_crossing_the_e15_bar_fails():
    # 5.2% is within 10% of a 4.9% baseline: only the absolute bar trips.
    base = _edit(_committed("BENCH_E15.json"), 1, overhead_pct=4.9)
    rows = _edit(_e15_rows(), 1, overhead_pct=5.2)
    failures = G.check("e15", E15, rows, base)
    assert failures == ["telemetry: overhead_pct 5.2 crosses the bar 5.0"]


@pytest.mark.parametrize(
    "gate,name,rows,changes",
    [
        (E14, "e14", _e14_rows, {"violations": 1}),
        (E15, "e15", _e15_rows, {"exact": False}),
        (E15, "e15", _e15_rows, {"open_gaps": 2}),
    ],
)
def test_required_constant_mismatch_fails(gate, name, rows, changes):
    base = _committed(gate.baseline)
    failures = G.check(name, gate, _edit(rows(), 1, **changes), base)
    (field,) = changes
    assert len(failures) == 1 and f": {field} is " in failures[0]


def test_row_missing_from_the_baseline_fails():
    base = _committed("BENCH_E15.json")[:2]
    failures = G.check("e15", E15, _e15_rows(), base)
    assert failures == ["telemetry+chaos: no baseline row (run --update)"]


def test_baseline_row_no_longer_produced_fails():
    failures = G.check("e14", E14, _e14_rows()[1:], _committed("BENCH_E14.json"))
    assert failures == ["cslip-14.4k/clean: baseline row no longer produced"]


@pytest.mark.parametrize(
    "gate,rows", [(E14, _e14_rows), (E15, _e15_rows)], ids=["e14", "e15"]
)
def test_update_writes_the_committed_bytes(tmp_path, gate, rows):
    path = G.write_baseline(gate, rows(), str(tmp_path))
    with open(path, "rb") as written, open(
        os.path.join(REPO_ROOT, gate.baseline), "rb"
    ) as committed:
        assert written.read() == committed.read()


def test_e16_update_rewrites_only_the_gate_section(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCH_E16.json"), tmp_path)
    row = dict(_e16_row(), drain_cpu_x_cal=99.0)
    G.write_baseline(E16, [row], str(tmp_path))
    doc = json.loads((tmp_path / "BENCH_E16.json").read_text())
    assert list(doc) == ["full_scale", "gate"]
    assert doc["full_scale"] == _committed("BENCH_E16.json")["full_scale"]
    assert doc["gate"] == row


def test_e14_gate_end_to_end(tmp_path, monkeypatch, capsys):
    """The real E14 run passes against the committed baseline from any
    working directory, exits 2 where there is none, and --update writes
    the committed bytes."""
    monkeypatch.chdir(tmp_path)
    assert main(["--gate", "e14"]) == 0
    out = capsys.readouterr().out
    assert "cslip-14.4k/clean: bytes_wire " in out and "(baseline " in out
    assert not (tmp_path / "BENCH_E14.json").exists()
    monkeypatch.setattr(G, "REPO_ROOT", str(tmp_path))
    assert main(["--gate", "e14"]) == 2
    assert "missing baseline" in capsys.readouterr().err
    assert main(["--gate", "--update", "e14"]) == 0
    with open(os.path.join(REPO_ROOT, "BENCH_E14.json"), "rb") as committed:
        assert (tmp_path / "BENCH_E14.json").read_bytes() == committed.read()


def test_gate_cli_rejects_ungated_experiments_and_bare_update():
    with pytest.raises(SystemExit):
        main(["--gate", "e3"])
    with pytest.raises(SystemExit):
        main(["--update", "e14"])
