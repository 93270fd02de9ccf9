# Verify targets for the scdn repository.
#
#   make check   — the full gate: build, vet, the project lint suite,
#                  unit tests, the -race pass over the concurrent
#                  packages, a short native-fuzz smoke, a 1-iteration
#                  benchmark smoke so the bench harness cannot rot, the
#                  scenario smoke table, and vet + tests of the
#                  perfbench module.
#   make perfbenchcheck — vet and test the repository benchmark
#                  (perfbench/, a module of its own that `go build ./...`
#                  never builds), so an API change it depends on fails
#                  here instead of in the benchmark run.
#   make test    — tier-1 only (what CI has always run).
#   make lint    — scdn-lint, the project-specific static-analysis
#                  suite (bodydrain, lockio, metricname, atomiccopy,
#                  ctxhttp); non-zero exit on any finding.
#   make race    — just the -race pass.
#   make flake   — the flake gate: the delivery-plane, storage,
#                  transfer-client, ingest (block-parallel hashing),
#                  metrics (every serving goroutine shares its
#                  histogram) and load-harness suites ten times
#                  over at GOMAXPROCS 1, 2 and 4, then one pass of the
#                  whole tier-1 suite at GOMAXPROCS 1 and 4, so a test that only passes
#                  under lucky scheduling fails here instead of
#                  intermittently.
#   make fuzzsmoke — run each native fuzz target briefly against its
#                  checked-in seed corpus.
#   make bench   — the benchmark harness: delivery-plane micro-benchmarks
#                  (catalog resolve, payload block derivation, range
#                  writes, warm disk serving, ingest hashers vs verifier
#                  MB/s) at GOMAXPROCS=4, the reproduction benchmarks,
#                  and the open-loop delivery sweep (BENCH_delivery.json).
#   make ci      — what .github/workflows/check.yml runs: gofmt
#                  cleanliness of every Go file in the tree (root
#                  package, cmd, internal, examples, perfbench), module
#                  verification, then the full check gate.
#   make smoke   — the scenario smoke table: one fixed-seed, CI-sized
#                  scdn-loadgen run per scenario (delivery, churn,
#                  ingest, large), each of which must reconcile against
#                  /metrics; `make smoke-<scenario>` runs one row. Each
#                  row writes a gitignored BENCH_<scenario>_smoke.json.
#   make perfgate — the performance ratchet: a fixed-seed open-loop
#                  sweep (arrivals fired on schedule, latency from
#                  intended start times) writes a candidate record,
#                  which scdn-perfgate compares against the checked-in
#                  BENCH_delivery.json — knee throughput and knee p99
#                  must stay inside the tolerance band — and a fixed-seed
#                  large sweep is gated the same way against
#                  BENCH_large.json's sustained MB/s (the byte axis).
#   make largebench — the byte-throughput measurement run whose record
#                  is checked in as BENCH_large.json.

GO ?= go

SMOKE_ROWS = delivery churn ingest large

.PHONY: check test lint race vet bench benchsmoke fuzzsmoke \
	ci fmtcheck modverify smoke $(addprefix smoke-,$(SMOKE_ROWS)) perfgate largebench \
	perfbenchcheck flake

check: vet lint test race fuzzsmoke benchsmoke smoke perfbenchcheck

ci: fmtcheck modverify check

# gofmt -l prints nothing when the tree is clean; any output fails the
# gate. It walks the whole tree, so the root package, examples/ and the
# perfbench module are held to the same format as cmd/ and internal/.
fmtcheck:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

modverify:
	$(GO) mod verify

test:
	$(GO) build ./...
	$(GO) test ./...

lint:
	$(GO) run ./cmd/scdn-lint ./...

vet:
	$(GO) vet ./...

perfbenchcheck:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Every package that spawns goroutines or holds sync/atomic state runs
# under the race detector: cdnclient fans striped fetches and uploads
# out across goroutines, ingest hashes a manifest's blocks on every core
# and its manifest store is shared by every node, and every serving
# goroutine records into metrics' lock-free histogram. Audited exclusions (no goroutines, no sync, no atomics as
# of this writing): internal/replication, internal/sim, internal/transfer
# (single-threaded simulation code), internal/lint (sequential analyzer
# driver), the remaining pure graph/model packages, and cmd/ (only
# scdn-digest has a test, a sequential one against a local cluster).
race:
	$(GO) test -race ./internal/allocation ./internal/cdnclient ./internal/ingest \
		./internal/loadharness ./internal/metrics ./internal/middleware \
		./internal/placement ./internal/server ./internal/socialnet \
		./internal/storage

flake:
	$(GO) test -count=10 -cpu 1,2,4 ./internal/server ./internal/storage ./internal/cdnclient \
		./internal/ingest ./internal/metrics ./internal/loadharness
	$(GO) test -count=1 -cpu 1,4 ./...

fuzzsmoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRange$$' -fuzztime 5s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzMultipartFraming$$' -fuzztime 5s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzPlanStripes$$' -fuzztime 5s ./internal/cdnclient
	$(GO) test -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime 5s ./internal/ingest

bench:
	$(GO) test -run '^$$' -bench . -benchmem -cpu 4 ./...
	$(GO) run ./cmd/scdn-loadgen -scenario delivery -nodes 3 -datasets 8 \
		-rates 200,400,800,1600 -openloop-duration 2s -seed 42 -bench-out BENCH_delivery.json

benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/server ./internal/ingest ./internal/storage

# The smoke table: one fixed-seed, CI-sized row per scenario.
# SMOKE_<row> holds the row's scdn-loadgen flags, SMOKE_<row>_GREP the
# lines its record must contain. The run itself exits non-zero on any
# failed request, any mismatch against /metrics, or (churn, ingest) a
# dataset left below the replication floor; the greps pin the recorded
# outcome.
#
# delivery: a short two-step open-loop sweep of verified GETs against
# the in-process cluster's disk volumes.
SMOKE_delivery = -nodes 2 -datasets 4 -rates 50,100 -openloop-duration 1s -seed 42
SMOKE_delivery_GREP = '"payload_mode": "dir"' '"failed": 0' '"schema_version": 2' '"reconciled": true'
# churn: the same two victims die on the same schedule every run, so a
# repair regression reproduces instead of flaking.
SMOKE_churn = -nodes 4 -workers 6 -requests 300 -churn 'kill=2,restart=2s,spacing=2s' -seed 7
SMOKE_churn_GREP = '"failed": 0' '"all_restarted": true' '"reconciled": true'
# ingest: opaque datasets cannot be regenerated, so the run proves repair
# moved verified bytes between peers — the regenerated counter stays
# zero and every dataset reconciles byte for byte after the churn.
SMOKE_ingest = -nodes 3 -workers 4 -datasets 8 -bytes 262144 -requests 120 -stripes 3 \
	-churn 'kill=1,restart=3s' -seed 42
SMOKE_ingest_GREP = '"failed": 0' '"digest_mismatches": 0' '"repair_regenerated": 0' '"reconciled": true'
# large: CI-sized segments (1 MiB over 8 MiB datasets) still force the
# segmented layout, partial residency, and the segment endpoint. -verify
# checks every payload byte: the smoke is a correctness gate, not a
# measurement — largebench (no -verify) is the number that gets checked
# in.
SMOKE_large = -nodes 2 -datasets 2 -bytes 8388608 -segment-size 1048576 -rates 10,20 \
	-openloop-duration 1s -seed 42 -verify
SMOKE_large_GREP = '"failed": 0' '"reconciled": true' '"schema_version": 2'

smoke: $(addprefix smoke-,$(SMOKE_ROWS))

$(addprefix smoke-,$(SMOKE_ROWS)): smoke-%:
	$(GO) run ./cmd/scdn-loadgen -scenario $* $(SMOKE_$*) -bench-out BENCH_$*_smoke.json
	@for want in $(SMOKE_$*_GREP); do \
		grep -qF "$$want" BENCH_$*_smoke.json || { echo "BENCH_$*_smoke.json lacks $$want"; exit 1; }; \
	done

# Fixed seed so the sweep's arrival schedule is identical across runs.
# The open-loop run itself fails on any unexcused request failure or
# /metrics mismatch; scdn-perfgate then ratchets the candidate's knee
# against the checked-in history. The tolerance band is loose on purpose
# (shared runners, loopback jitter) but a real regression — knee
# throughput halved, knee p99 blown past the floor — fails the gate.
# To advance the baseline after an intentional change, copy the
# candidate over BENCH_delivery.json and check it in.
perfgate:
	$(GO) run ./cmd/scdn-loadgen -scenario delivery -nodes 3 -datasets 8 \
		-rates 200,400,800,1600 -openloop-duration 2s -seed 42 \
		-bench-out BENCH_openloop_candidate.json
	$(GO) run ./cmd/scdn-loadgen -scenario large -nodes 2 -datasets 2 -bytes 33554432 \
		-segment-size 4194304 -rates 4,8,16 -openloop-duration 2s -seed 42 \
		-bench-out BENCH_large_candidate.json
	$(GO) run ./cmd/scdn-perfgate -baseline BENCH_delivery.json \
		-candidate BENCH_openloop_candidate.json \
		-large-baseline BENCH_large.json \
		-large-candidate BENCH_large_candidate.json

# The measurement run whose record is checked in as BENCH_large.json
# (same shape the perfgate candidate uses, so the ratchet compares like
# with like). To advance the baseline after an intentional change, re-run
# and check in the new record.
largebench:
	$(GO) run ./cmd/scdn-loadgen -scenario large -nodes 2 -datasets 2 -bytes 33554432 \
		-segment-size 4194304 -rates 4,8,16 -openloop-duration 2s -seed 42 \
		-bench-out BENCH_large.json
