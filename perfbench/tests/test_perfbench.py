"""Tests of the benchmark itself (tiny workload sizes).

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from ledger import OpLedger  # noqa: E402
from scenarios import WORKLOADS, counter_object  # noqa: E402

#: Small enough that every repetition takes well under a second.
SCALE = "0.03"


@pytest.fixture
def checkout(tmp_path: Path) -> Path:
    """A private checkout: the benchmark copied, the program linked, so
    the determinism record of a test run stays in ``tmp_path``."""
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        ".state", "__pycache__", "tests"
    ))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    return tmp_path


def bench(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=300,
    )


def declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[kind]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_through_the_command(checkout, workload, trace):
    (checkout / "src").symlink_to(ROOT / "src")
    result = bench(
        checkout, "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", trace, "--scale", SCALE,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["attempted"] >= 1 and report["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(report["metrics"]) == declared(kind)
    if trace == "0":
        for name in declared(kind):
            assert report["metrics"][name]["value"] > 0, name
        assert "failed_ratio" in result.stdout


def test_workloads_are_the_declared_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_without_the_program_the_command_fails_quietly(checkout):
    result = bench(checkout, "--workload", "drain", "--seed", "1", "--seconds", "1")
    assert result.returncode == 2
    assert "{" not in result.stdout


_COUNTS_AFTER = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import run
from scenarios import WORKLOADS
cls = WORKLOADS["drain"]
if {traced}:
    from layers import LayerTracer
    tracer = LayerTracer()
    tracer.install()
    try:
        run.repeat_once(cls, 4, {scale})
    finally:
        tracer.remove()
print(json.dumps(run.repeat_once(cls, 4, {scale}).deterministic(), sort_keys=True))
"""


def counts_in_fresh_process(traced: bool) -> dict:
    code = _COUNTS_AFTER.format(
        bench=str(BENCH), src=str(ROOT / "src"), traced=traced, scale=SCALE
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_traced_wrappers_are_removed_afterwards():
    assert counts_in_fresh_process(traced=True) == counts_in_fresh_process(traced=False)


def _namespaces():
    """Every program module and every class it defines."""
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        yield module
        for value in list(vars(module).values()):
            if inspect.isclass(value) and value.__module__ == name:
                yield value


def test_tracer_restores_every_attribute():
    from layers import LAYERS, LayerTracer
    from repro.net import message, simnet

    for modules in LAYERS.values():
        for name in modules:
            importlib.import_module(name)
    before = {
        (id(space), attr): value
        for space in _namespaces()
        for attr, value in vars(space).items()
    }
    tracer = LayerTracer()
    tracer.install()
    try:
        assert message.marshal is not before[(id(message), "marshal")]
        assert vars(simnet.Link)["send"] is not before[(id(simnet.Link), "send")]
    finally:
        tracer.remove()
    after = {
        (id(space), attr): value
        for space in _namespaces()
        for attr, value in vars(space).items()
    }
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_failed_ratio_counts_a_rejected_promise():
    from repro.testbed import build_multi_client_testbed

    bed = build_multi_client_testbed(1)
    bed.server.put_object(counter_object(bed.authority, 0))
    stack = bed.clients[0]
    ledger = OpLedger()
    ledger.watch(stack.access, stack.link.policy)
    good = stack.access.invoke_remote(f"urn:rover:{bed.authority}/obj/0", "bump", [b"x"])
    missing = stack.access.invoke_remote(f"urn:rover:{bed.authority}/obj/9", "bump", [b"x"])
    bed.sim.run(until=60.0)
    assert good.ready and missing.failed
    summary = ledger.summary()
    assert (summary["submitted"], summary["acked"], summary["failed"]) == (2, 1, 1)
    assert summary["failed_ratio"] == 0.5
