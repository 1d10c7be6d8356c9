PYTHON ?= python
CHAOS_SEED ?= 0

.PHONY: install test lint effects bench tables chaos check ha perf fleet speed demo examples clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

lint:
	$(PYTHON) -m repro.lint src/repro --strict-suppressions
	$(PYTHON) -m repro.lint --rdos
	$(PYTHON) -m repro.lint --effects src/repro

# Whole-program effect analysis alone (docs/LINTING.md, EFF rules).
# On violation it prints witness call chains; sanctioned escapes live
# in lint-effects-baseline.txt.
effects:
	$(PYTHON) -m repro.lint --effects src/repro --effects-json lint-effects.json

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

tables:
	$(PYTHON) -m repro.bench

chaos:
	CHAOS_SEED=$(CHAOS_SEED) $(PYTHON) -m pytest -q \
		tests/test_chaos_faults.py tests/test_chaos_convergence.py \
		tests/test_ha_failover.py \
		benchmarks/test_e13_chaos.py

# Replicated home servers: failover/fencing/anti-entropy suite plus an
# exhaustive pass over primary-kill interleavings (docs/ROBUSTNESS.md,
# "Replication and failover").
ha:
	CHAOS_SEED=$(CHAOS_SEED) $(PYTHON) -m pytest -q \
		tests/test_ha_failover.py tests/test_ha_satellites.py
	$(PYTHON) -m repro.check --suite ha-failover --depth 1

# Bounded interleaving model check (docs/VERIFICATION.md); < 2 min.
# On a violation it writes the minimized trace to check-counterexample.json.
check:
	$(PYTHON) -m repro.check --suite warm-import --depth 1
	$(PYTHON) -m repro.check --suite crash-during-drain --suite delta-ship \
		--suite conflict-export --depth 2

perf:
	$(PYTHON) -m pytest -q benchmarks/test_e14_wire.py benchmarks/test_micro_primitives.py --benchmark-only
	$(PYTHON) -m repro.bench --gate e14

# CPU hot path: codec/group-commit/kernel suite, determinism digest
# pins, and the E16 drain-throughput gate at CI scale
# (docs/PERFORMANCE.md, "The CPU hot path").
speed:
	$(PYTHON) -m pytest -q tests/test_speed.py tests/test_determinism.py
	$(PYTHON) -m repro.bench --gate e16

# Fleet telemetry: unit/integration suite plus the E15 overhead +
# exactness gate at CI scale (docs/OBSERVABILITY.md).
fleet:
	$(PYTHON) -m pytest -q tests/test_fleet_sketch.py tests/test_fleet_pipeline.py \
		tests/test_fleet_health.py tests/test_fleet_chaos.py
	$(PYTHON) -m repro.bench --gate e15

demo:
	$(PYTHON) -m repro

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f > /dev/null && echo OK || echo FAILED; done

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
