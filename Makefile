# Verify targets for the scdn repository.
#
#   make check   — the full gate: build, vet, the project lint suite,
#                  unit tests, the -race pass over the concurrent
#                  packages, a short native-fuzz smoke, a 1-iteration
#                  benchmark smoke so the bench harness cannot rot, and
#                  vet + tests of the perfbench module.
#   make perfbenchcheck — vet and test the repository benchmark
#                  (perfbench/, a module of its own that `go build ./...`
#                  never builds), so an API change it depends on fails
#                  here instead of in the benchmark run.
#   make test    — tier-1 only (what CI has always run).
#   make lint    — scdn-lint, the project-specific static-analysis
#                  suite (bodydrain, lockio, metricname, atomiccopy,
#                  ctxhttp); non-zero exit on any finding.
#   make race    — just the -race pass.
#   make flake   — the flake gate: the delivery-plane, storage and
#                  transfer-client suites ten times over at GOMAXPROCS
#                  1, 2 and 4, so a test that only passes under lucky
#                  scheduling fails here instead of intermittently.
#   make fuzzsmoke — run each native fuzz target briefly against its
#                  checked-in seed corpus.
#   make bench   — the benchmark harness: delivery-plane micro-benchmarks
#                  (catalog resolve, payload block cache, range writes,
#                  disk vs generated serving, ingest hasher vs verifier
#                  MB/s) at GOMAXPROCS=4, the
#                  reproduction benchmarks, and short striped loadgen
#                  passes in both payload store modes — the dir-mode run
#                  writes BENCH_delivery.json, the generated-mode run
#                  BENCH_delivery_generated.json.
#   make loadgen — end-to-end networked benchmark: closed-loop load
#                  against a 3-node in-process edge cluster over TCP.
#   make ci      — what .github/workflows/check.yml runs: gofmt
#                  cleanliness, module verification, then the full
#                  check gate.
#   make churnsmoke — fixed-seed churn acceptance: a dir-mode loadgen
#                  run that kills and restarts two edges mid-stream and
#                  must finish with zero failed requests and every
#                  dataset repaired back to the replication floor
#                  (writes BENCH_churn.json).
#   make ingestsmoke — fixed-seed live-ingest acceptance: opaque
#                  datasets are uploaded through PUT /v1/datasets,
#                  fetched under churn, and every re-replication must be
#                  satisfied by verified peer byte copy — zero digest
#                  mismatches, zero generator fallbacks (writes
#                  BENCH_ingest.json).
#   make perfgate — the performance ratchet: a fixed-seed open-loop
#                  sweep (arrivals fired on schedule, latency from
#                  intended start times) writes a candidate record,
#                  which scdn-perfgate compares against the checked-in
#                  BENCH_delivery.json — knee throughput and knee p99
#                  must stay inside the tolerance band — and a fixed-seed
#                  -large sweep is gated the same way against
#                  BENCH_large.json's sustained MB/s (the byte axis).
#   make largesmoke — fixed-seed large-object acceptance: a CI-sized
#                  -large run (segmented datasets, whole/ranged/
#                  segment-walk mix, every byte verified) that must
#                  reconcile with zero failures and exercise the
#                  segmented serve path (writes BENCH_large_smoke.json).
#   make largebench — the byte-throughput measurement run whose record
#                  is checked in as BENCH_large.json.

GO ?= go

.PHONY: check test lint race vet bench benchsmoke fuzzsmoke loadgen \
	ci fmtcheck modverify churnsmoke ingestsmoke perfgate largesmoke largebench \
	perfbenchcheck flake

check: vet lint test race fuzzsmoke benchsmoke largesmoke perfbenchcheck

ci: fmtcheck modverify check

# gofmt -l prints nothing when the tree is clean; any output fails the
# gate.
fmtcheck:
	@out=$$(gofmt -l cmd internal); \
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
# under the race detector: cdnclient fans upload/download stripes out
# across goroutines and ingest's manifest store is shared by every
# node. Audited exclusions (no goroutines, no sync, no atomics as of
# this writing): internal/replication, internal/sim, internal/transfer
# (single-threaded simulation code), internal/lint (sequential analyzer
# driver), the remaining pure graph/model packages, and cmd/ (only
# scdn-digest has a test, a sequential one against a local cluster).
race:
	$(GO) test -race ./internal/allocation ./internal/cdnclient ./internal/ingest \
		./internal/loadharness ./internal/metrics ./internal/middleware \
		./internal/placement ./internal/server ./internal/socialnet \
		./internal/storage ./internal/stripe

flake:
	$(GO) test -count=10 -cpu 1,2,4 ./internal/server ./internal/storage ./internal/cdnclient

fuzzsmoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRange$$' -fuzztime 5s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzPlanStripes$$' -fuzztime 5s ./internal/stripe
	$(GO) test -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime 5s ./internal/ingest

bench:
	$(GO) test -run '^$$' -bench . -benchmem -cpu 4 ./...
	$(GO) run ./cmd/scdn-loadgen -nodes 3 -workers 8 -requests 400 -stripes 4 -store generated -bench-out BENCH_delivery_generated.json
	$(GO) run ./cmd/scdn-loadgen -nodes 3 -workers 8 -requests 400 -stripes 4 -store dir -bench-out BENCH_delivery_closed.json
	$(GO) run ./cmd/scdn-loadgen -openloop -nodes 3 -datasets 8 -store dir \
		-rates 200,400,800,1600 -openloop-duration 2s -seed 42 -bench-out BENCH_delivery.json

benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/server
	$(GO) run ./cmd/scdn-loadgen -nodes 2 -workers 4 -requests 80 -store dir -bench-out BENCH_delivery_smoke.json
	grep -q '"payload_mode": "dir"' BENCH_delivery_smoke.json
	grep -q '"failed": 0' BENCH_delivery_smoke.json
	grep -q '"schema_version": 2' BENCH_delivery_smoke.json

loadgen:
	$(GO) run ./cmd/scdn-loadgen -nodes 3 -workers 8 -requests 600

# Fixed seed: the same two victims die on the same schedule every run,
# so a repair regression reproduces instead of flaking. The run itself
# exits non-zero on any unexplained failure or unrepaired dataset; the
# greps pin the recorded outcome.
churnsmoke:
	$(GO) run ./cmd/scdn-loadgen -nodes 4 -workers 6 -requests 300 -store dir \
		-churn 'kill=2,restart=2s,spacing=2s' -seed 7 -bench-out BENCH_churn.json
	grep -q '"failed": 0' BENCH_churn.json
	grep -q '"all_restarted": true' BENCH_churn.json
	grep -q '"reconciled": true' BENCH_churn.json

# Fixed seed, same reasoning as churnsmoke. Opaque datasets cannot be
# regenerated, so the run proves repair moved verified bytes between
# peers: the regenerated counter must stay zero and every dataset must
# reconcile byte-for-byte after the churn.
ingestsmoke:
	$(GO) run ./cmd/scdn-loadgen -ingest -nodes 3 -workers 4 -datasets 8 \
		-bytes 262144 -requests 120 -stripes 3 -seed 42 \
		-churn 'kill=1,restart=3s' -bench-out BENCH_ingest.json
	grep -q '"failed": 0' BENCH_ingest.json
	grep -q '"digest_mismatches": 0' BENCH_ingest.json
	grep -q '"repair_regenerated": 0' BENCH_ingest.json
	grep -q '"reconciled": true' BENCH_ingest.json

# Fixed seed so the sweep's arrival schedule is identical across runs.
# The open-loop run itself fails on any unexcused request failure or
# /metrics mismatch; scdn-perfgate then ratchets the candidate's knee
# against the checked-in history. The tolerance band is loose on purpose
# (shared runners, loopback jitter) but a real regression — knee
# throughput halved, knee p99 blown past the floor — fails the gate.
# To advance the baseline after an intentional change, copy the
# candidate over BENCH_delivery.json and check it in.
perfgate:
	$(GO) run ./cmd/scdn-loadgen -openloop -nodes 3 -datasets 8 -store dir \
		-rates 200,400,800,1600 -openloop-duration 2s -seed 42 \
		-bench-out BENCH_openloop_candidate.json
	$(GO) run ./cmd/scdn-loadgen -large -nodes 2 -datasets 2 -bytes 33554432 \
		-segment-size 4194304 -rates 4,8,16 -openloop-duration 2s -seed 42 \
		-bench-out BENCH_large_candidate.json
	$(GO) run ./cmd/scdn-perfgate -baseline BENCH_delivery.json \
		-candidate BENCH_openloop_candidate.json \
		-large-baseline BENCH_large.json \
		-large-candidate BENCH_large_candidate.json

# Fixed seed, CI-sized segments (1 MiB over 8 MiB datasets) so the run
# finishes in seconds while still forcing the segmented layout, partial
# residency, and the segment endpoint. -verify hashes every payload
# byte in-stream: the smoke is a correctness gate, not a measurement —
# largebench (no -verify) is the number that gets checked in.
largesmoke:
	$(GO) run ./cmd/scdn-loadgen -large -nodes 2 -datasets 2 -bytes 8388608 \
		-segment-size 1048576 -rates 10,20 -openloop-duration 1s -seed 42 \
		-verify -bench-out BENCH_large_smoke.json
	grep -q '"failed": 0' BENCH_large_smoke.json
	grep -q '"reconciled": true' BENCH_large_smoke.json
	grep -q '"schema_version": 2' BENCH_large_smoke.json

# The measurement run whose record is checked in as BENCH_large.json
# (same shape the perfgate candidate uses, so the ratchet compares like
# with like). To advance the baseline after an intentional change, re-run
# and check in the new record.
largebench:
	$(GO) run ./cmd/scdn-loadgen -large -nodes 2 -datasets 2 -bytes 33554432 \
		-segment-size 4194304 -rates 4,8,16 -openloop-duration 2s -seed 42 \
		-bench-out BENCH_large.json
