"""CLI runner tests (python -m repro.bench)."""

import pytest

from repro.bench import experiments
from repro.bench.__main__ import EXPERIMENTS, main, write_csv


def test_list_prints_all_ids(capsys):
    assert main(["--list"]) == 0
    printed = capsys.readouterr().out.split()
    assert set(printed) == set(EXPERIMENTS)


def test_unknown_experiment_errors():
    with pytest.raises(SystemExit):
        main(["e999"])


def test_single_experiment_renders_table(capsys):
    assert main(["e3"]) == 0
    out = capsys.readouterr().out
    assert "local cached invocation" in out
    assert "cslip-14.4k" in out


def test_csv_export(tmp_path, capsys):
    assert main(["e3", "--csv", str(tmp_path)]) == 0
    path = tmp_path / "e3.csv"
    assert path.exists()
    lines = path.read_text().splitlines()
    assert lines[0].startswith("link,")
    assert len(lines) == 5  # header + four links


def test_write_csv_skips_table_only_experiments(tmp_path):
    written = write_csv(str(tmp_path), ["e6"])  # e6 has no row-dict driver
    assert written == []


def test_registry_ids_are_the_listed_experiments():
    ids = {f"e{n}" for n in range(1, 17)} | {"e2b", "f1", "f2", "f3"}
    assert set(EXPERIMENTS) == ids


def test_csv_runs_each_driver_once(tmp_path, monkeypatch, capsys):
    calls = []
    real = experiments.run_e3_local_vs_rpc

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_e3_local_vs_rpc", counting)
    assert main(["e3", "--csv", str(tmp_path)]) == 0
    assert (tmp_path / "e3.csv").exists()
    assert len(calls) == 1
