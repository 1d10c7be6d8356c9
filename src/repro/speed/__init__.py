"""repro.speed — CPU hot-path benchmark harness (experiment E16).

The simulation's *virtual* time is pinned by seeds; this package
measures the *real* CPU cost of producing it: a 10k-client mixed-link
reconnection drain (end-to-end ops/sec and process CPU time) plus a
marshal/unmarshal microbench.  Results are committed as
``BENCH_E16.json`` and gated in CI by
``python -m repro.bench --gate e16`` — deterministic counters must match
exactly, and CPU cost (normalized against an in-process calibration
loop so the gate is machine-portable) must not regress more than 10%.

Real-clock reads live only in :mod:`repro.speed.measure`, which is
sanctioned for wall-clock access in ``repro.lint.contracts`` — the
scenario itself stays sim-pure.
"""

from repro.speed.measure import Stopwatch, calibration_seconds
from repro.speed.microbench import run_codec_microbench
from repro.speed.scenario import DrainMetrics, SpeedScenario, run_drain

__all__ = [
    "DrainMetrics",
    "SpeedScenario",
    "Stopwatch",
    "calibration_seconds",
    "run_codec_microbench",
    "run_drain",
]
