GO ?= go
SMOKE_OUT := $(shell mktemp -u /tmp/sweep-smoke.XXXXXX.jsonl)
TELEMETRY_DEMO_OUT ?= telemetry-demo

PROFILE_OUT ?= profiles

.PHONY: check lint vet build test race mutants smoke bench-smoke bench-quick bench telemetry-demo profile clean

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

# smoke runs the 4-job example spec through the real CLI and engine and
# checks that the records' fingerprints (a record's first member) are
# -dry-run's list line for line, then re-runs it against the same output to
# prove resume skips all 4: the file's line count does not change.
smoke:
	$(GO) run ./cmd/sweep -spec examples/sweepspec_smoke.json -dry-run | grep -v ' jobs (' | cut -d' ' -f1 >$(SMOKE_OUT).want
	$(GO) run ./cmd/sweep -spec examples/sweepspec_smoke.json -out $(SMOKE_OUT)
	cut -d'"' -f4 $(SMOKE_OUT) | diff $(SMOKE_OUT).want -
	wc -l <$(SMOKE_OUT) >$(SMOKE_OUT).lines
	$(GO) run ./cmd/sweep -spec examples/sweepspec_smoke.json -out $(SMOKE_OUT)
	wc -l <$(SMOKE_OUT) | diff $(SMOKE_OUT).lines -
	@rm -f $(SMOKE_OUT) $(SMOKE_OUT).want $(SMOKE_OUT).lines

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
