GO ?= go

.PHONY: build vet test test-full bench benchdiff lint cover loc serve e2e e2e-cluster linkcheck

## build: compile every package
build:
	$(GO) build ./...

## vet: static analysis
vet:
	$(GO) vet ./...

## test: the fast race-hardened tier (a few seconds)
test: build vet
	$(GO) test -race -short ./...

## test-full: the complete suite, including the experiment replays
test-full:
	$(GO) test -race ./...

## bench: run the micro-benchmarks plus the HTTP serving benchmark
## (with -benchmem) and snapshot them to the untracked
## bench_local.json. Recording a new committed trajectory point is an
## explicit `./scripts/bench.sh BENCH_N.json` so a routine `make
## bench` can never overwrite a baseline in place.
bench:
	./scripts/bench.sh bench_local.json

## benchdiff: record bench_local.json and fail if it regresses >10%
## vs the committed BENCH_39.json baseline in allocs/op, printing the
## ns/op drift alongside (see scripts/benchdiff for arbitrary
## snapshots). Allocation counts are deterministic for a given core
## count; wall-clock on a shared dev box is not, so only allocs gate
## here — the same gate the CI bench job applies.
benchdiff: bench
	./scripts/benchdiff BENCH_39.json bench_local.json 10 allocs

## lint: formatting + static analysis + the reachability gate
## (scripts/reachcheck: every package imported and every func and
## method linked by some binary, bar scripts/reachcheck.allow), the
## fast-fail CI gate
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	./scripts/reachcheck

## cover: streaming-engine + online-learner + resilience + query-layer
## + observability coverage with the ratcheted >=80% gates CI
## enforces; leaves the merged cover.out for `go tool cover -html=cover.out`
cover:
	./scripts/covergate cover.out ./internal/stream/ 80 ./internal/online/ 80 ./internal/resilience/ 80 ./internal/query/ 80 ./internal/obs/ 80

## loc: non-test Go lines per package directory, blank and comment
## lines not counted (scripts/loc). A report, not a gate.
loc:
	./scripts/loc

## serve: run the streaming engine as an HTTP service on :8080 with a
## durable checkpoint — restarting the target resumes where it left off
serve:
	$(GO) run ./cmd/slimfast stream -listen :8080 \
		-checkpoint slimfast.ckpt -restore slimfast.ckpt

## e2e: the full restart-determinism proof over the network (build,
## serve, ingest over HTTP, checkpoint, kill -9, restore, byte-compare)
## plus the corruption scenario (damaged newest generation falls back)
e2e:
	./scripts/e2e_restart.sh

## e2e-cluster: the cluster-mode proof (3 nodes behind `slimfast
## router`, kill -9 one member mid-stream, restore, byte-compare the
## merged /estimates and /sources against a single-node reference)
e2e-cluster:
	./scripts/e2e_cluster.sh

## linkcheck: offline markdown link + anchor check over README.md and
## docs/ (the CI docs gate; no network)
linkcheck:
	./scripts/linkcheck.sh
