"""F3 — contention on a shared wireless cell (figure-style series).

The paper's WaveLAN is a shared 2 Mbit/s channel, not N dedicated
wires.  Shape asserted: with dedicated links, N clients hoarding at
once finish in constant time; on one shared cell the finish time grows
with the population (air time serializes), roughly linearly.
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_f3_shared_cell
from repro.bench.specs import EXPERIMENTS


def test_f3_shared_cell(benchmark):
    rows = benchmark.pedantic(run_f3_shared_cell, rounds=1, iterations=1)
    record_report(EXPERIMENTS["f3"].tables[0].render(rows))
    # Dedicated links: population-independent.
    dedicated = [r["dedicated_links_s"] for r in rows]
    assert max(dedicated) < 1.2 * min(dedicated)
    # Shared cell: strictly increasing finish time with population.
    shared = [r["shared_cell_s"] for r in rows]
    assert shared == sorted(shared)
    assert shared[-1] > 3.0 * shared[0]
    # Roughly linear growth: doubling the population should not more
    # than ~2.5x the finish time step-over-step.
    for earlier, later in zip(rows, rows[1:]):
        assert later["shared_cell_s"] < 2.5 * earlier["shared_cell_s"]
