GO ?= go
SMOKE_OUT := $(shell mktemp -u /tmp/sweep-smoke.XXXXXX.jsonl)
TELEMETRY_DEMO_OUT ?= telemetry-demo

PROFILE_OUT ?= profiles
FABRIC_ADDR ?= 127.0.0.1:9178
FABRIC_TMP := $(shell mktemp -u /tmp/fabric-smoke.XXXXXX)

.PHONY: check lint vet build test race mutants smoke fabric-smoke bench-smoke bench-quick bench telemetry-demo profile clean

# check is the full pre-merge gate: static analysis, build, race-enabled
# tests, an end-to-end smoke sweep through cmd/sweep, a one-iteration
# compile-and-run pass over every microbenchmark, and the repository
# benchmark at smoke scale (every workload, every output check).
check: lint build race smoke bench-smoke bench-quick

# lint is all static analysis: go vet plus the repository's determinism
# check (determinism, seedflow and paniclint rules — see internal/lint),
# which is a test and also runs in `go test ./...`.
lint: vet
	$(GO) test -count=1 ./internal/lint

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs one package's tests at a time (-p 1): internal/gpu and
# internal/noc each take minutes under the race detector, and run beside
# the other packages on a small machine they pass the 10-minute default
# test timeout.
race:
	$(GO) test -race -p 1 ./...

# mutants runs the mutation ledger (testdata/mutations): each diff is applied
# to a temporary copy of the tree and every test its header names under
# "Must fail" is run on its own (go test -count=1 -timeout); it fails when a
# diff no longer applies or a mutant survives one of its tests.
mutants:
	bash testdata/mutations/run.sh

# smoke runs the 4-job example spec through the real CLI and engine,
# then re-runs it against the same output to prove resume skips all 4.
smoke:
	$(GO) run ./cmd/sweep -spec examples/sweepspec_smoke.json -out $(SMOKE_OUT)
	$(GO) run ./cmd/sweep -spec examples/sweepspec_smoke.json -out $(SMOKE_OUT)
	@rm -f $(SMOKE_OUT)

# fabric-smoke proves the distributed sweep fabric end-to-end: a
# single-process reference run (-ordered), then a coordinator with two
# workers over the same spec — one worker killed mid-run so its lease
# expires and its jobs are re-queued — and a canonical-form diff of the two
# JSONL outputs (the exec footprint legitimately differs per mode; the
# simulated results must not). The kill-one leg is also the fleet
# observability probe: /metrics must show the lease expiry, and the
# sweep's timeline, saved to flight/timeline.json beside the workers'
# simulation dumps, must hold the expired lease. Finally the coordinator is
# killed and restarted on the same store directory: resubmitting the
# identical spec must be answered entirely from the content-addressed store
# (0 pending, store-hit series non-zero).
fabric-smoke:
	@mkdir -p $(FABRIC_TMP)/flight
	$(GO) build -o $(FABRIC_TMP)/sweep ./cmd/sweep
	$(FABRIC_TMP)/sweep -spec examples/sweepspec_smoke.json -out $(FABRIC_TMP)/single.jsonl -ordered
	@set -e; \
	$(FABRIC_TMP)/sweep -serve $(FABRIC_ADDR) -store $(FABRIC_TMP)/store \
		-lease-jobs 1 -lease-ttl 3s & coord=$$!; \
	w1=; w2=; trap 'kill $$coord $$w1 $$w2 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do \
		curl -fsS http://$(FABRIC_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	$(FABRIC_TMP)/sweep -connect http://$(FABRIC_ADDR) -flight-dir $(FABRIC_TMP)/flight & w1=$$!; \
	$(FABRIC_TMP)/sweep -connect http://$(FABRIC_ADDR) -flight-dir $(FABRIC_TMP)/flight & w2=$$!; \
	id=$$(curl -fsS -X POST --data-binary @examples/sweepspec_smoke.json \
		http://$(FABRIC_ADDR)/submit | sed 's/.*"sweep_id":"\([^"]*\)".*/\1/'); \
	echo "sweep $$id submitted"; \
	sleep 0.5; kill -9 $$w1 2>/dev/null || true; echo "killed worker 1 mid-run"; \
	for i in $$(seq 1 240); do \
		curl -fsS http://$(FABRIC_ADDR)/sweeps/$$id | grep -q '"status":"done"' && break; \
		sleep 0.5; \
	done; \
	curl -fsS http://$(FABRIC_ADDR)/sweeps/$$id | grep -q '"status":"done"' \
		|| { echo "fabric-smoke: sweep never finished"; exit 1; }; \
	curl -fsS http://$(FABRIC_ADDR)/sweeps/$$id/results > $(FABRIC_TMP)/fabric.jsonl; \
	sed -E 's/,"exec":\{[^}]*\}//' $(FABRIC_TMP)/single.jsonl > $(FABRIC_TMP)/single.canon.jsonl; \
	sed -E 's/,"exec":\{[^}]*\}//' $(FABRIC_TMP)/fabric.jsonl > $(FABRIC_TMP)/fabric.canon.jsonl; \
	cmp $(FABRIC_TMP)/single.canon.jsonl $(FABRIC_TMP)/fabric.canon.jsonl \
		|| { echo "fabric-smoke: distributed output differs from single-process"; exit 1; }; \
	echo "fabric output canonically identical to single-process ($$(wc -c < $(FABRIC_TMP)/fabric.canon.jsonl) bytes)"; \
	grep -q '"exec":{' $(FABRIC_TMP)/fabric.jsonl \
		|| { echo "fabric-smoke: records carry no exec footprint"; exit 1; }; \
	grep -q '"worker":"w' $(FABRIC_TMP)/fabric.jsonl \
		|| { echo "fabric-smoke: records carry no worker attribution"; exit 1; }; \
	curl -fsS http://$(FABRIC_ADDR)/metrics | grep -Eq '^fleet_leases_expired_total [1-9]' \
		|| { echo "fabric-smoke: /metrics shows no lease expiry after kill"; exit 1; }; \
	echo "lease expiry visible in /metrics"; \
	curl -fsS http://$(FABRIC_ADDR)/sweeps/$$id/timeline > $(FABRIC_TMP)/flight/timeline.json; \
	grep -q '"kind":"expired"' $(FABRIC_TMP)/flight/timeline.json \
		|| { echo "fabric-smoke: timeline shows no expired lease after kill"; exit 1; }; \
	echo "expired lease on the timeline"; \
	kill $$coord 2>/dev/null || true; wait $$coord 2>/dev/null || true; \
	$(FABRIC_TMP)/sweep -serve $(FABRIC_ADDR) -store $(FABRIC_TMP)/store \
		-lease-jobs 1 -lease-ttl 3s & coord=$$!; \
	for i in $$(seq 1 100); do \
		curl -fsS http://$(FABRIC_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	curl -fsS -X POST --data-binary @examples/sweepspec_smoke.json http://$(FABRIC_ADDR)/submit \
		| grep -q '"pending":0' \
		|| { echo "fabric-smoke: resubmit was not served from the store"; exit 1; }; \
	curl -fsS http://$(FABRIC_ADDR)/metrics | grep -Eq '^fleet_store_hits_total [1-9]' \
		|| { echo "fabric-smoke: restarted coordinator shows no store hits"; exit 1; }; \
	echo "resubmit served entirely from store (store-hit series non-zero)"
	@rm -rf $(FABRIC_TMP)

# bench-smoke compiles and runs every testing.B benchmark exactly once — the
# nine left in the root bench_test.go: GPUCycle, GPUCycleLarge,
# GPUCycleTelemetry, RouterStep and five ablations — so none bit-rots. It
# measures nothing; measurement is bench/ (bench-quick, bench).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-quick runs the repository benchmark (bench/, BENCHMARK.json) at
# 1/20 scale: every workload and every output check, exiting non-zero when
# any operation or check fails. Its numbers are not comparable.
bench-quick:
	$(GO) run ./bench -all -quick

# bench is the real measurement: every workload at full scale, the way the
# driver runs it. Append the last output line of several runs per commit to
# a file each and gate with `go run ./bench -compare A B` (bench/README.md).
bench:
	bash bench/run.sh -all

# telemetry-demo produces the paper's bottom-vs-diamond link-load contrast
# as telemetry artifacts: two instrumented runs whose heatmap.csv files
# show the MC-edge concentration (bottom) against the spread-out diamond.
telemetry-demo:
	$(GO) run ./cmd/nocsim -bench KMN -placement bottom \
		-telemetry-epoch 1000 -telemetry-out $(TELEMETRY_DEMO_OUT)/bottom
	$(GO) run ./cmd/nocsim -bench KMN -placement diamond \
		-telemetry-epoch 1000 -telemetry-out $(TELEMETRY_DEMO_OUT)/diamond
	@echo "artifacts in $(TELEMETRY_DEMO_OUT)/{bottom,diamond}/{series.jsonl,heatmap.csv,trace.json}"

# profile captures CPU and allocation profiles of a representative run:
# one full-GPU simulation on the heaviest benchmark. Inspect with
#   go tool pprof -top $(PROFILE_OUT)/nocsim.cpu
# (see README "Profiling" for how to read them against the cycle kernel).
profile:
	@mkdir -p $(PROFILE_OUT)
	$(GO) run ./cmd/nocsim -bench KMN -cycles 200000 \
		-cpuprofile $(PROFILE_OUT)/nocsim.cpu -memprofile $(PROFILE_OUT)/nocsim.mem >/dev/null
	@echo "profiles in $(PROFILE_OUT)/nocsim.{cpu,mem}"

clean:
	$(GO) clean ./...
