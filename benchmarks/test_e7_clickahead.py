"""E7 — the Rover Web Browser Proxy: click-ahead and prefetching.

A user browses 6 pages (HTML + separate inline images) with 30 s of
reading time per page, clicking on a fixed schedule.  Shape asserted:

* click-ahead pipelines transfers behind think time, so the session is
  shorter than the blocking browser's on every link;
* on the 14.4 link, user-visible wait strictly improves from blocking
  (blocked until images complete) to click-ahead (HTML displays while
  images fill in) to click-ahead+prefetch;
* on the 2.4 link the channel is saturated: clicking on schedule piles
  requests into the queue, so per-click display latency *exceeds* the
  blocking browser's (which self-paces by blocking) even though the
  total session is far shorter — the regime where the paper's
  user-settable prefetch threshold and priorities matter most.
"""

from benchmarks.conftest import record_report
from repro.bench.experiments import run_e7_clickahead, run_e7_threshold_sweep
from repro.bench.specs import EXPERIMENTS


def test_e7_clickahead(benchmark):
    rows = benchmark.pedantic(run_e7_clickahead, rounds=1, iterations=1)
    record_report(EXPERIMENTS["e7"].tables[0].render(rows))
    by_link = {r["link"]: r for r in rows}
    for r in rows:
        # Click-ahead always shortens the session vs blocking, and
        # prefetch never makes the session longer than plain
        # click-ahead under the same click schedule.
        assert r["clickahead_session_s"] < r["blocking_session_s"]
        assert r["prefetch_session_s"] <= 1.05 * r["clickahead_session_s"]
    # 14.4: each step of the ladder strictly improves user wait.
    fast = by_link["cslip-14.4k"]
    assert fast["clickahead_user_wait_s"] < fast["blocking_user_wait_s"]
    assert fast["prefetch_user_wait_s"] < 0.5 * fast["clickahead_user_wait_s"]
    assert fast["prefetches_issued"] > 0
    # 2.4: saturation — fixed-schedule clicking builds a queue, so
    # per-click display latency exceeds the self-pacing blocking
    # browser's even though the session is much shorter.
    slow = by_link["cslip-2.4k"]
    assert slow["clickahead_user_wait_s"] > slow["blocking_user_wait_s"]
    assert slow["clickahead_session_s"] < 0.7 * slow["blocking_session_s"]


def test_e7_prefetch_threshold_sweep(benchmark):
    rows = benchmark.pedantic(run_e7_threshold_sweep, rounds=1, iterations=1)
    record_report(EXPERIMENTS["e7"].tables[1].render(rows))
    # Aggressive thresholds trade bytes for wait; conservative ones the
    # reverse.  Both ends of the sweep must show the trade-off.
    aggressive = rows[0]
    conservative = rows[-1]
    assert aggressive["user_wait_s"] < conservative["user_wait_s"]
    assert aggressive["bytes_on_wire"] > conservative["bytes_on_wire"]
    assert aggressive["prefetches"] > conservative["prefetches"]
