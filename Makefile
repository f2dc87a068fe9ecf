PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-all bench bench-quick check examples lint paper

test:            ## fast test tier (tier-1 minus slow)
	$(PYTHON) -m pytest -q -m "not slow"

lint:            ## reprolint static contract checks over src/repro
	$(PYTHON) -m repro.analysis.lint src/repro --baseline reprolint_baseline.json

paper:           ## paper experiments E1-E14 (benchmarks/bench_e*.py)
	$(PYTHON) -m pytest -q benchmarks/bench_e*.py

examples:        ## run every example as a smoke test
	@for example in examples/*.py; do \
		echo "== $$example"; \
		$(PYTHON) $$example > /dev/null || exit 1; \
	done; echo "examples: OK"

test-all:        ## full test suite including slow equivalence runs
	$(PYTHON) -m pytest -q

bench:           ## full perf suite; rewrites the tracked BENCH_PERF.json
	$(PYTHON) benchmarks/perf/run_perf.py

bench-quick:     ## perf smoke test (does not touch BENCH_PERF.json)
	$(PYTHON) benchmarks/perf/run_perf.py --quick --output /tmp/bench_quick.json

check:           ## fast tests + paper + examples + perf smoke + floors + staleness (CI gate)
	bash scripts/check.sh
