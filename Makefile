GO ?= go
SMOKE_OUT := $(shell mktemp -u /tmp/sweep-smoke.XXXXXX.jsonl)
TELEMETRY_DEMO_OUT ?= telemetry-demo

PROFILE_OUT ?= profiles

.PHONY: check lint vet build test pins race mutants smoke bench-smoke bench-quick bench telemetry-demo profile clean

# check is the full pre-merge gate: go vet, build, the name guard of the
# equivalence suites (pins), every test once under the race detector (the
# determinism check in internal/lint among them), an end-to-end smoke sweep
# through cmd/sweep, a one-iteration compile-and-run pass over every
# microbenchmark, and the repository benchmark at smoke scale (every
# workload, every output check).
check: vet build pins race smoke bench-smoke bench-quick

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

# pins guards the names of the kernel equivalence suites: for each (package,
# pattern) pair below it runs `go test -list`, nothing else, and fails,
# naming the pair, when the pattern matches no test there, so neither a
# rename nor a move can silently drop a suite. The suites run in race.
#   .                    every run bit for bit, also from the retired Workers=4; run loop == hand-stepping; dense readers == sparse; figure tables concurrent == one at a time; artifacts == goldens; old inputs carrying the retired Workers
#   internal/noc         whole runs == the tick-every-cycle twin (statistics, telemetry, sanitizer cycles), also from the retired Workers 1 and 4; kernel == the specification model; arbitration digests; run masks and wakes; settled totals == the twin's; stats window; one next-hop table
#   internal/smcore      sleeping SM ticks == the tick digests and an always-awake twin; a refused outbox waits for its wake
#   internal/mc          sleeping MC ticks == the tick digests and an always-awake twin; a reply reuses a request's storage
#   internal/gpu         whole runs == the fig9/idle digests; the sanitizer cadence; no allocation after warm-up; Reset and Run == a new simulator; shared structures
#   internal/sweep       every job key == the fmt.Sprintf format
#   internal/telemetry   the span collector agrees with the routing function
#   internal/core        one proof per structure; the sparse CDG prover == the dense reference
#   internal/synthetic   a harness shares gpu.New's core.Structure; concurrent == solo
#   internal/fabric      concurrent Submits of one spec register one sweep
#   internal/experiments the result memo: shared == alone, Workers folded, eviction re-simulates equal; the checklist == EXPERIMENTS.md's block
#   cmd/experiments      the CLI's fig2,fig3 JSON == its golden
#   internal/cache       the set index == a list LRU; the MSHR table == the map reference
#   internal/workload    integer thresholds == the float draws
#   internal/config      every Config field is read
#   internal/lint        every production package passes the determinism check
pins:
	@fail=0; \
	pin() { $(GO) test -list "$$2" "$$1" | grep -q '^Test' || { echo "pins: $$1 $$2 matches no test"; fail=1; }; }; \
	pin . 'StepperEquivalence|FigureTableEquivalence|GoldenRunArtifacts|RetiredWorkers'; \
	pin ./internal/noc 'Spec|StepperEquivalenceNetworkLevel|ReferenceOracle|ArbitrationDigests|MaskInvariants|RunMasksExact|IdleInvariants|SaturatedNetworkSleeps|InjectWake|StatsWindow|FlitsLandInPlace'; \
	pin ./internal/noc 'RouteTable'; \
	pin ./internal/smcore 'TickDigests|Sleep|RefusedDrainWaitsForWake|RepliesBecomeRequests'; \
	pin ./internal/mc 'TickDigests|Sleep|ReplyReusesRequestStorage'; \
	pin ./internal/gpu 'FastForwardEquivalence|SanitizerCadence|WholeStep|EndpointInvariants|StepSteadyState'; \
	pin ./internal/gpu 'ResetMatchesNew|ResetAcrossDesignPoints|RunResultOwnsItsStorage|RunRecyclesCompletedRuns|RunRewiresIdleSimulators'; \
	pin ./internal/gpu 'SharedStructure'; \
	pin ./internal/sweep 'ExpandKeys'; \
	pin ./internal/telemetry 'Spans'; \
	pin ./internal/core 'Structure'; \
	pin ./internal/core 'CDGMatchesDenseReference'; \
	pin ./internal/synthetic 'SharedStructure'; \
	pin ./internal/fabric 'SubmitConcurrent'; \
	pin ./internal/experiments 'Memo|ChecklistMatchesResultsFile'; \
	pin ./cmd/experiments 'Golden'; \
	pin ./internal/cache 'ReferenceLRU'; \
	pin ./internal/cache 'MSHRMatchesMapReference'; \
	pin ./internal/workload 'FloatDraws'; \
	pin ./internal/config 'EveryConfigFieldIsRead'; \
	pin ./internal/lint 'RepoIsClean'; \
	exit $$fail

# race runs every test once under the race detector, packages side by side:
# -count=1 so that no result comes from the test cache, and a 30-minute
# timeout because internal/gpu and internal/noc each take minutes under the
# detector on a small machine.
race:
	$(GO) test -race -count=1 -timeout 30m ./...

# mutants runs the mutation ledger (testdata/mutations): each diff is applied
# to a temporary copy of the tree and every test its header names under
# "Must fail" is run on its own (go test -count=1 -timeout); it fails when a
# diff no longer applies or a mutant survives one of its tests.
mutants:
	bash testdata/mutations/run.sh

# smoke runs the 4-job example spec through the real CLI and engine and
# checks that the records' fingerprints (a record's first member) are
# -dry-run's list line for line. Then it appends a torn partial record (no
# trailing newline), the tail a crash mid-write leaves, and re-runs against
# the same output: the resume must exit 0, drop the torn bytes and run none
# of the 4 jobs, so the line count and the fingerprints do not change.
smoke:
	$(GO) run ./cmd/sweep -spec examples/sweepspec_smoke.json -dry-run | grep -v ' jobs (' | cut -d' ' -f1 >$(SMOKE_OUT).want
	$(GO) run ./cmd/sweep -spec examples/sweepspec_smoke.json -out $(SMOKE_OUT)
	cut -d'"' -f4 $(SMOKE_OUT) | diff $(SMOKE_OUT).want -
	wc -l <$(SMOKE_OUT) >$(SMOKE_OUT).lines
	printf '{"fingerprint":"torn","key":"KMN' >>$(SMOKE_OUT)
	$(GO) run ./cmd/sweep -spec examples/sweepspec_smoke.json -out $(SMOKE_OUT)
	wc -l <$(SMOKE_OUT) | diff $(SMOKE_OUT).lines -
	cut -d'"' -f4 $(SMOKE_OUT) | diff $(SMOKE_OUT).want -
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
# as two traced runs whose heatmap.csv files show the MC-edge concentration
# (bottom) against the spread-out diamond.
telemetry-demo:
	$(GO) run ./cmd/nocsim -bench KMN -placement bottom -trace $(TELEMETRY_DEMO_OUT)/bottom
	$(GO) run ./cmd/nocsim -bench KMN -placement diamond -trace $(TELEMETRY_DEMO_OUT)/diamond
	@echo "traces in $(TELEMETRY_DEMO_OUT)/{bottom,diamond}/{series.jsonl,trace.json,heatmap.csv}"

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
