"""Benchmark harness: experiment drivers and table rendering.

Every table/figure of the paper's evaluation has a driver in
:mod:`repro.bench.experiments` that builds the scenario, runs it in
virtual time, and returns structured results.  Each table's title and
columns, and the E14-E16 regression gates, are declared once in
:mod:`repro.bench.specs`.  The pytest-benchmark files under
``benchmarks/`` call the drivers, print the registry's tables, and
assert the expected *shape* (orderings, ratios, crossovers).
"""

from repro.bench.tables import format_seconds, format_table
from repro.bench.timeline import Timeline
from repro.bench import experiments

__all__ = ["Timeline", "experiments", "format_seconds", "format_table"]
