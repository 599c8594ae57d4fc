GO ?= go

.PHONY: check vet lint build test test-race fuzz-smoke bench-obs bench-perf bench-fleet bench-fleet-smoke bench-serve bench-serve-smoke clean

# The full gate: what CI (and every PR) must pass.
check: vet lint build test-race

vet:
	$(GO) vet ./...

# Project-specific analyzers (detorder, errflow, floateq, lockflow,
# nopanic, obsguard, statepair, wallclock) — see internal/lint and README
# "Static analysis"; `go run ./cmd/awdlint -list` prints the catalogue.
lint:
	$(GO) run ./cmd/awdlint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Short fuzzing pass over the native fuzz targets; CI runs the same smoke.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/detect/ -run '^$$' -fuzz '^FuzzNoEscape$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/logger/ -run '^$$' -fuzz '^FuzzBufferHoldRelease$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/reach/ -run '^$$' -fuzz '^FuzzReachBoundFinite$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/reach/ -run '^$$' -fuzz '^FuzzStepperMatchesReachBox$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fleet/ -run '^$$' -fuzz '^FuzzBatchMatchesSerial$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzSnapshotRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzFrameRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzBurstMatchesSplit$$' -fuzztime $(FUZZTIME)

# Re-measure the detector-step overhead numbers ledgered in BENCH_obs.json:
# the detector step with the observer off, metrics-only and ring-traced,
# the ObserveStep fan-out, plus the snapshot/rollup read path the console
# polls (must stay O(shards), see internal/obs/snapshot_test.go). Updates
# only the "after" section; the committed "before" baseline (the
# pre-instrumentation seed tree) is preserved by cmd/awdbench.
bench-obs:
	{ $(GO) test -run '^$$' -bench 'DetectorStep$$|DetectorStepObservability|ObserveStep' -benchmem -count 3 . && \
	  $(GO) test -run '^$$' -bench 'RegistrySnapshot|FleetRollup' -benchmem -count 3 ./internal/obs/ ; } \
		| $(GO) run ./cmd/awdbench -out BENCH_obs.json -phase after \
			-note "observer off / metrics / ring-traced detector step, ObserveStep fan-out, registry snapshot and fleet rollup read path"

# Re-measure the hot-path numbers ledgered in BENCH_perf.json. Updates only
# the "after" section; the committed "before" baseline (pre-optimization
# tree) is preserved by cmd/awdbench.
bench-perf:
	$(GO) test -run '^$$' -bench 'DetectorStep$$|DeadlineEstimation|Table2Campaign' -benchmem -count 3 . \
		| $(GO) run ./cmd/awdbench -out BENCH_perf.json -phase after \
			-note "this PR (zero-alloc hot path, warm-started deadline search, shared Analysis cache)"

# Re-measure the fleet-vs-baseline throughput ledgered in BENCH_fleet.json.
# Unlike BENCH_perf.json, both phases measure the same tree: "before" is
# the naive goroutine-per-stream baseline, "after" the sharded batch-kernel
# fleet engine, so the ratio is the engine's speedup at equal detection
# semantics (the differential tests pin the two bit-identical).
# The "after" phase also records the per-stream footprint rows
# (BenchmarkFleetAddStream/model=...): the cost of building and
# registering one adaptive stream, and the live heap one warmed stream
# holds (B/stream); the flatness gate reads only the streams= rows.
# FLEET_MIN_FRAC is the scaling-flatness floor the re-measurement enforces:
# the largest-stream row (streams=100000) must run at at least this
# fraction of the 1000-stream rate. The measured ratio on the reference
# 1-vCPU box is ~0.42–0.45 (the 100000-stream working set is ~360 MB of
# per-stream detector state — the FleetAddStream rows' B/stream — far past
# every cache level, so each step pays DRAM latency the 1000-stream run
# never sees); 0.35 leaves noise headroom
# while still failing the pre-batching engine, which measured ~0.32.
FLEET_MIN_FRAC ?= 0.35
bench-fleet:
	$(GO) test -run '^$$' -bench 'NaiveSteps' -benchmem -benchtime 2s -count 3 ./internal/fleet/ \
		| $(GO) run ./cmd/awdbench -out BENCH_fleet.json -phase before \
			-title "one fleet tick: every stream ingests a sample and gets its decision (aircraft-pitch, adaptive)" \
			-note "naive baseline: one goroutine per stream, channel per sample"
	$(GO) test -run '^$$' -bench 'FleetSteps|FleetAddStream' -benchmem -benchtime 2s -count 3 ./internal/fleet/ \
		| $(GO) run ./cmd/awdbench -out BENCH_fleet.json -phase after \
			-note "fleet engine: sharded batch kernels, per-stream StepPredicted in batch order, one-tile shards; FleetAddStream rows: per-stream set-up cost and live heap per warmed stream (B/stream)"
	$(GO) run ./cmd/awdbench -check-flat BENCH_fleet.json -phase after \
		-base streams=1000 -min-frac $(FLEET_MIN_FRAC)

# Short flatness smoke for CI: two fleet sizes, a few iterations each, into
# a throwaway ledger, then the same gate at a looser floor (one-shot
# samples on shared runners are noisier than the committed 3x2s ledger;
# 20000 streams already leaves every cache level while keeping the setup
# cost CI-friendly — measured ~0.53 on the reference box).
FLEET_SMOKE_MIN_FRAC ?= 0.40
bench-fleet-smoke:
	$(GO) test -run '^$$' -bench 'FleetSteps/streams=(1000|20000)$$' -benchmem -benchtime 3x ./internal/fleet/ \
		| $(GO) run ./cmd/awdbench -out /tmp/bench_fleet_smoke.json -phase after -note "CI flatness smoke"
	$(GO) run ./cmd/awdbench -check-flat /tmp/bench_fleet_smoke.json -phase after \
		-base streams=1000 -min-frac $(FLEET_SMOKE_MIN_FRAC)

# Re-measure the fleet-server ingest and checkpoint numbers ledgered in
# BENCH_serve.json. Like BENCH_fleet.json both phases measure the same
# tree: "before" is one sample round trip over the HTTP/JSON fallback (a
# one-item POST /v1/ingest-batch), "after" the binary protocol —
# MsgIngestBatch at several batch sizes (batch=1 is the synchronous
# single-sample round trip, since a sample is a batch of one), pipelined
# (async in-flight window of one-item frames), and multi-connection —
# plus stream set-up (ServeOpen: one Open round trip for a fresh stream
# of a plant whose tables are already built), a whole Server.Checkpoint
# into its file (ServeCheckpoint: B/op is a checkpoint's memory cost) and
# the whole-fleet snapshot/restore codec throughput behind
# Checkpoint/Restore.
# SERVE_MIN_SPEEDUP is the amortization floor the re-measurement enforces:
# the largest batch row's per-sample throughput must be at least this
# multiple of the batch=1 row's (measured ~20x on the reference 1-vCPU
# box; 10x leaves noise headroom while failing any tree whose batch path
# degenerates back to per-sample cost).
SERVE_MIN_SPEEDUP ?= 10
bench-serve:
	$(GO) test -run '^$$' -bench 'ServeIngestHTTP' -benchmem -benchtime 1s -count 3 ./internal/wire/ \
		| $(GO) run ./cmd/awdbench -out BENCH_serve.json -phase before \
			-title "fleet server: one ingest or Open round trip on loopback, and whole-fleet checkpoint/restore (adaptive; aircraft-pitch unless the row names a model)" \
			-note "HTTP/JSON fallback: one one-item POST /v1/ingest-batch per sample"
	$(GO) test -run '^$$' -bench 'ServeIngestWire|ServeIngestPipelined|ServeOpen|ServeCheckpoint|FleetSnapshot|FleetRestore' -benchmem -benchtime 1s -count 3 ./internal/wire/ \
		| $(GO) run ./cmd/awdbench -out BENCH_serve.json -phase after \
			-note "binary protocol: MsgIngestBatch at batch=1..256, pipelined one-item frames, multi-connection, Open per fresh stream, Checkpoint into a file"
	$(GO) run ./cmd/awdbench -check-flat BENCH_serve.json -phase after \
		-scale-key batch -base batch=1 -metric samples/sec -min-frac $(SERVE_MIN_SPEEDUP)

# Short batching smoke for CI: the smallest and largest batch rows, a few
# iterations each, into a throwaway ledger, then the same gate at a looser
# floor (one-shot samples on shared runners are noisier than the committed
# 3x1s ledger). The ServeOpen and ServeCheckpoint rows ride along so CI
# runs the set-up and checkpoint benchmarks too; the gate reads only
# batch= rows.
SERVE_SMOKE_MIN_SPEEDUP ?= 6
bench-serve-smoke:
	$(GO) test -run '^$$' -bench 'ServeIngestWireBatch/batch=(1|256)$$|ServeOpen|ServeCheckpoint' -benchmem -benchtime 20x ./internal/wire/ \
		| $(GO) run ./cmd/awdbench -out /tmp/bench_serve_smoke.json -phase after -note "CI batching smoke"
	$(GO) run ./cmd/awdbench -check-flat /tmp/bench_serve_smoke.json -phase after \
		-scale-key batch -base batch=1 -metric samples/sec -min-frac $(SERVE_SMOKE_MIN_SPEEDUP)

clean:
	$(GO) clean ./...
