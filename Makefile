PYTHON ?= python

.PHONY: install test test-fast coverage serve-smoke serve-bench lifecycle-smoke sched-smoke eval-smoke explain-smoke bench bench-check profile-campaign profile-campaign-batched report templates examples clean

install:
	pip install -e . --no-build-isolation

test: serve-smoke
	$(PYTHON) -m pytest tests/

# The sub-minute tier: unit tests only (markers are applied per
# directory in tests/conftest.py, so -m unit == tests/unit/).
test-fast:
	$(PYTHON) -m pytest -m unit

# Line-coverage gate over the observability and serving layers.
# Dependency-free (sys.settrace); uses pytest-cov instead if you
# installed the `cov` extra and prefer its reports.
coverage:
	$(PYTHON) scripts/coverage_check.py

serve-smoke:
	$(PYTHON) scripts/serve_smoke.py

# Serving throughput: the absolute predict-batch floor on the two-worker
# HTTP front end plus the plain-predict p99 ceiling, without the rest of
# the bench suite.
serve-bench:
	$(PYTHON) scripts/serve_bench.py

# The growth-injection e2e demo: drift detected, scoped retrain,
# shadow-gated promotion, accuracy restored — deterministically.
lifecycle-smoke:
	$(PYTHON) -m pytest tests/integration/test_lifecycle_e2e.py -q

# Queue-replay demo: three trace families x three policies, twice,
# asserting completion and bit-reproducibility from the seeds.
sched-smoke:
	$(PYTHON) scripts/sched_smoke.py

# Ranking-quality demo: small scenario matrix scored by both backends,
# twice, asserting the 0.5 accuracy floor and bit-reproducibility.
eval-smoke:
	$(PYTHON) scripts/eval_smoke.py

# Blame-attribution demo: a small mix explained twice, asserting the
# conservation invariant and bit-reproducible blame matrices.
explain-smoke:
	$(PYTHON) scripts/explain_smoke.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only \
		--benchmark-max-time=0.5 --benchmark-min-rounds=1

bench-check:
	$(PYTHON) scripts/bench_check.py

profile-campaign:
	$(PYTHON) scripts/profile_campaign.py

profile-campaign-batched:
	$(PYTHON) scripts/profile_campaign.py --batched

report:
	$(PYTHON) -m repro.experiments.report > EXPERIMENTS.md

templates:
	$(PYTHON) -m repro.workload.reference > docs/TEMPLATES.md

examples:
	@for ex in examples/*.py; do \
		echo "=== $$ex"; \
		$(PYTHON) $$ex || exit 1; \
	done

clean:
	rm -rf benchmarks/.cache .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
