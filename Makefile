# Convenience targets for the eMPTCP reproduction.

PY ?= python

.PHONY: install test check lint bench bench-smoke bench-verbose trace-smoke packet-smoke perf-smoke fleet-smoke service-smoke obs-smoke report report-paper examples clean

install:
	$(PY) -m pip install -e . || $(PY) setup.py develop

test: check trace-smoke packet-smoke perf-smoke fleet-smoke service-smoke obs-smoke
	PYTHONPATH=src $(PY) -m pytest tests/

check:  ## static tiers: lint + dataflow vs baselines + config verification
	PYTHONPATH=src $(PY) -m repro.cli check lint
	PYTHONPATH=src $(PY) -m repro.cli check dataflow
	PYTHONPATH=src $(PY) -m repro.cli check config
	@command -v ruff >/dev/null 2>&1 \
		&& ruff check src tests \
		|| echo "ruff not installed; skipping (CI runs it)"
	@command -v mypy >/dev/null 2>&1 \
		&& mypy \
		|| echo "mypy not installed; skipping (CI runs it)"

lint: check

trace-smoke:  ## one traced smoke run; the exported JSONL must validate
	rm -rf .trace-smoke
	PYTHONPATH=src $(PY) -m repro.cli fig6 --runs 1 --size-mb 2 --trace \
		--metrics --no-progress --cache-dir .trace-smoke > /dev/null
	PYTHONPATH=src $(PY) -m repro.cli trace validate .trace-smoke/obs
	PYTHONPATH=src $(PY) -m repro.cli check trace .trace-smoke/obs
	PYTHONPATH=src $(PY) -m repro.cli trace summarize .trace-smoke/obs
	rm -rf .trace-smoke

packet-smoke:  ## emptcp end-to-end on the packet engine, traced + cached
	rm -rf .packet-smoke
	PYTHONPATH=src $(PY) -m repro.cli run emptcp good --engine packet \
		--runs 1 --size-mb 2 --trace --cache --cache-dir .packet-smoke \
		--manifest .packet-smoke/manifest.jsonl --no-progress > /dev/null
	test -s .packet-smoke/manifest.jsonl
	PYTHONPATH=src $(PY) -m repro.cli check trace .packet-smoke/obs
	PYTHONPATH=src $(PY) -m repro.cli validate --size-mb 2 --no-progress
	rm -rf .packet-smoke

perf-smoke:  ## tiny bench record, self-compare (0 regressions), profiler table
	rm -rf .perf-smoke && mkdir -p .perf-smoke
	PYTHONPATH=src $(PY) -m repro.cli perf record --size-mb 2 --runs 2 \
		--output .perf-smoke/bench.json 2> /dev/null
	PYTHONPATH=src $(PY) -m repro.cli check perf .perf-smoke/bench.json
	PYTHONPATH=src $(PY) -m repro.cli perf compare \
		.perf-smoke/bench.json .perf-smoke/bench.json
	PYTHONPATH=src $(PY) -m repro.cli perf profile emptcp good --size-mb 2
	PYTHONPATH=src $(PY) -c "from repro.runtime.bench import \
		format_overhead, profiling_overhead; \
		print(format_overhead(profiling_overhead(4.0)))"
	rm -rf .perf-smoke

fleet-smoke:  ## 1k-session flow-tier fleet under a time budget, obs-sampled
	rm -rf .fleet-smoke && mkdir -p .fleet-smoke
	timeout 120 env PYTHONPATH=src $(PY) -m repro.cli fleet run \
		--sessions 1000 --duration-s 60 --trace \
		--obs-dir .fleet-smoke/obs --no-progress
	PYTHONPATH=src $(PY) -m repro.cli trace validate .fleet-smoke/obs
	PYTHONPATH=src $(PY) -m repro.cli fleet sweep 100 1000 --duration-s 20 \
		--no-progress > /dev/null
	timeout 120 env PYTHONPATH=src $(PY) -m repro.cli validate \
		--engine flow --size-mb 2 --no-progress
	rm -rf .fleet-smoke

service-smoke:  ## HTTP service round trip: warm resubmit must be all hits
	rm -rf .service-smoke
	timeout 180 env PYTHONPATH=src $(PY) tests/service_smoke.py smoke \
		--cache-dir .service-smoke --size-mb 1 --jobs 2
	rm -rf .service-smoke

obs-smoke:  ## distributed-trace loop: sweep over HTTP, scrape /v1/metrics, reassemble + CHK7xx
	rm -rf .obs-smoke
	timeout 180 env PYTHONPATH=src $(PY) tests/service_smoke.py obs \
		--cache-dir .obs-smoke --size-mb 2 --jobs 2
	PYTHONPATH=src $(PY) -m repro.cli trace tree .obs-smoke/obs > /dev/null
	PYTHONPATH=src $(PY) -m repro.cli check trace .obs-smoke/obs
	rm -rf .obs-smoke

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

bench-verbose:  ## print every figure's rows
	$(PY) -m pytest benchmarks/ --benchmark-only -s

bench-smoke:  ## smoke-scale report through the parallel runtime
	PYTHONPATH=src $(PY) -m repro.cli report --scale smoke --jobs 2 \
		--output SMOKE_REPORT.md

report:  ## full evaluation at default scale -> REPORT.md
	$(PY) -m repro.cli report --scale default --output REPORT.md

report-paper:  ## paper-scale evaluation (256 MB x 10 runs)
	$(PY) -m repro.cli report --scale paper --output REPORT.md

examples:
	for f in examples/*.py; do echo "== $$f"; $(PY) $$f || exit 1; done

clean:
	rm -rf .pytest_cache .benchmarks build *.egg-info src/*.egg-info .trace-smoke .packet-smoke .perf-smoke .fleet-smoke .service-smoke .obs-smoke
	find . -name __pycache__ -type d -exec rm -rf {} +
