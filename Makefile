GO ?= go

.PHONY: all build vet test race bench-smoke bench-guard cache-guard tier-guard flight-guard cluster-guard rulecheck-guard perfbench-test bench-json bench-serve bench-tier bench-exec bench-cluster fuzz-smoke cover ci experiments clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -timeout backstops regressions that hang (e.g. a wedged batch worker)
# instead of letting CI stall until the job-level kill.
test:
	$(GO) test -timeout 300s ./...

race:
	$(GO) test -race -timeout 600s ./...

# A short benchmark smoke: three iterations of the figure benchmarks that
# stress the search engine hardest (E3/E4 sweeps and the exploration
# figure). Full runs: `go test -bench=. -benchmem`.
bench-smoke:
	$(GO) test -run 'XXX' -bench 'Fig1[234]' -benchmem -benchtime 3x .

# Neutrality guards: run a feature's micro-benchmarks with the feature
# absent ("off") and attached-but-disabled ("disabled"), and fail if the
# disabled path costs more than GUARD_PCT percent — the feature must be
# free when nobody is using it. The fully enabled path ("on") is
# reported informationally. The whole off/disabled/on pass is repeated
# BENCH_COUNT times and the minimum ns/op per mode compared (the
# comparison lives in scripts/guard.awk, shared by all guards). The
# repetition is a shell loop rather than `-count` on purpose: -count
# runs all samples of one mode back to back, so slow machine-throughput
# drift reads as systematic mode overhead; interleaving whole passes
# puts each mode's minimum in comparable conditions.
GUARD_PCT ?= 2
BENCH_COUNT ?= 5

# guard runs the timing half of a neutrality guard for the target that
# calls it: $(1) is the benchmark regex, $(2) the benchtime, $(3) the
# package.
define guard
@rm -f /tmp/$@.txt
@for i in $$(seq $(BENCH_COUNT)); do \
	$(GO) test -run 'XXX' -bench '$(1)' -benchtime $(2) $(3) | tee -a /tmp/$@.txt || exit 1; \
done
@awk -v pct=$(GUARD_PCT) -v guard=$@ -f scripts/guard.awk /tmp/$@.txt
endef

# Observability overhead guard: instrumentation with every sink disabled
# must be indistinguishable from no instrumentation at all.
bench-guard:
	$(call guard,ObsGuard,200x,.)

# Plan-cache neutrality guard: a zero-capacity cache handle must be
# indistinguishable from no cache (one Enabled() branch per optimize),
# and the concurrent cache layers must be race-clean.
cache-guard:
	$(GO) test -race -timeout 300s ./internal/plancache ./internal/volcano
	$(call guard,CacheGuard,100x,.)

# Tiered-planner neutrality guard: an attached-but-unused router with
# the tier left at the default (full) must be byte- and cost-identical
# to today's single-tier behavior — TestTierNeutral checks the bytes,
# the TierGuard benchmark checks the cost.
tier-guard:
	$(GO) test -run 'TestTierNeutral' -timeout 120s ./internal/volcano
	$(call guard,TierGuard,100x,.)

# Flight-recorder neutrality guard: a disabled recorder handle on the
# serving path must be indistinguishable from no recorder at all —
# TestFlightNeutral checks the answers are identical, the FlightGuard
# benchmark checks the cost. The recorder's concurrent surfaces run
# under the race detector via the server package's flight tests.
flight-guard:
	$(GO) test -race -run 'TestFlight' -timeout 300s ./internal/server
	$(call guard,FlightGuard,50x,./internal/server)

# Cluster neutrality guard: a server with no peers must answer
# byte-identically to one with no cluster layer at all (TestClusterNeutral
# checks the bytes) and cost within GUARD_PCT on the cold-miss path — the
# only path where the cluster hook runs (ClusterGuard checks the cost).
# The peer protocol, epoch fan-out, and cluster singleflight run under
# the race detector first.
cluster-guard:
	$(GO) test -race -run 'TestCluster' -timeout 300s ./internal/server ./internal/cluster
	$(call guard,ClusterGuard,30x,./internal/server)

# Rule-correctness guard: the per-rule differential verifier must give
# every trans_rule of every shipped rule set a "verified" verdict (or an
# explicit waiver), and the mutation-testing mode must kill at least 95%
# of seeded rule corruptions (internal/rulecheck; DESIGN.md §4.17).
rulecheck-guard:
	$(GO) test -run 'TestShippedRuleSetsVerified|TestMutationKillRate' -timeout 300s ./internal/rulecheck

# The repository benchmark's own tests (tail and percentile rules, load
# loops, self-time attribution, answer checks). perfbench/ is a nested
# module, so `go test ./...` at the root does not reach it.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Archive the repeat-workload plan-cache benchmark (cold vs warm ns/op,
# full-hit speedup, hit rate, warm-start pruning, allocs) for diffing
# across revisions.
bench-json: build
	$(GO) run ./cmd/optbench -experiment repeat -json > BENCH_plancache.json
	@echo "bench-json: wrote BENCH_plancache.json"

# Archive the service load experiment (throughput, cold vs warm latency
# percentiles, shed count) for diffing across revisions.
bench-serve: build
	$(GO) run ./cmd/optbench -experiment serve -json > BENCH_serve.json
	@echo "bench-serve: wrote BENCH_serve.json"

# Archive the tiered-planner benchmark (first-plan latency per tier,
# refinement win rate, router routing mix) for diffing across revisions.
bench-tier: build
	$(GO) run ./cmd/optbench -experiment tier -json > BENCH_tier.json
	@echo "bench-tier: wrote BENCH_tier.json"

# Archive the executor benchmark (naive evaluator vs serial engine,
# bag-verified) for diffing across revisions.
bench-exec: build
	$(GO) run ./cmd/optbench -experiment exec -json > BENCH_exec.json
	@echo "bench-exec: wrote BENCH_exec.json"

# Archive the multi-node cluster experiment (throughput scaling with
# node count, cold vs peer-fill vs local-hit latency, hot-key
# replication load reduction) for diffing across revisions.
bench-cluster: build
	$(GO) run ./cmd/optbench -experiment cluster -json > BENCH_cluster.json
	@echo "bench-cluster: wrote BENCH_cluster.json"

# Fuzz smoke: every fuzz target for FUZZTIME each. FuzzParse drives the
# rule-language front end (parse -> format -> parse fixed point);
# FuzzFingerprint property-tests the plan-cache fingerprint invariants
# (commutative-input swaps, attrs reordering); FuzzCacheEntry hammers
# the peer-protocol cache-entry codec (garbage rejected without panics,
# decodables reach an encode/decode fixed point). Seed corpora live
# under testdata/fuzz/; crashers are gitignored until promoted.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/prairielang
	$(GO) test -run '^$$' -fuzz '^FuzzFingerprint$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzCacheEntry$$' -fuzztime $(FUZZTIME) ./internal/wire

# Statement-coverage gate: one merged profile, per-package summary, and
# a hard floor on the total (scripts/cover.awk). Baseline with the
# rulecheck package landed: 76.0%; the floor leaves headroom for
# unexercised glue in new code, not for regressions.
COVER_FLOOR ?= 75.5
cover:
	$(GO) test -timeout 600s -coverprofile=cover.out ./...
	@awk -v floor=$(COVER_FLOOR) -f scripts/cover.awk cover.out

ci: vet build race bench-smoke cache-guard tier-guard flight-guard cluster-guard rulecheck-guard perfbench-test fuzz-smoke cover

# Regenerate every paper table/figure (sequential, paper-faithful timing).
experiments: build
	$(GO) run ./cmd/optbench -experiment all

clean:
	$(GO) clean ./...
