GO ?= go
VET_BIN := bin/predata-vet

.PHONY: all build test race fmt vet vet-fixtures bench-smoke perfbench-test trace-test elastic-soak adversary-soak restart-soak serve-soak evaluation clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# vet runs the analyzer fixture suite, the standard toolchain vet, and
# the project suite over the tree. The predata-vet binary is built once
# into bin/ so repeated runs (and the CI cache) skip recompilation; the
# fixture tests ride the same go test cache, so an unchanged analyzer
# costs nothing. See cmd/predata-vet and DESIGN.md §7 and §12.
vet: $(VET_BIN) vet-fixtures
	$(GO) vet ./...
	$(VET_BIN) ./...

# vet-fixtures runs the analyzers' // want fixture tests (analysistest
# harness, testdata/src/... corpora) without vetting the tree — the
# fast loop when developing an analyzer.
vet-fixtures:
	$(GO) test ./internal/analysis/...

$(VET_BIN): $(shell find cmd/predata-vet internal/analysis -name '*.go' -not -path '*/testdata/*')
	$(GO) build -o $(VET_BIN) ./cmd/predata-vet

bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# perfbench-test vets and tests the benchmark harness. perfbench/ is a
# nested module (it replaces predata with the parent tree), so the
# root's ./... patterns never reach it.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# trace-test runs the flight-recorder suite: trace unit + fuzz-seed
# tests, the 64:1 trace-driven conformance tests (raced, shuffled), and
# the trace overhead experiment (DESIGN.md §9).
trace-test:
	$(GO) test -race -shuffle=on ./internal/trace/ -run . -count=1
	$(GO) test -race -shuffle=on -run 'TraceConformance|Prop' ./internal/predata/ ./internal/ops/
	$(GO) run ./cmd/predata-bench -experiment trace -json BENCH_trace.json

# elastic-soak runs the elasticity suite: autoscaler + xray driver
# units, the resize/handoff/conservation tests (raced, shuffled —
# includes a crash injected during a grow step and the elastic x
# {partition, restart, crashall} composition legs), and the elastic
# experiment (DESIGN.md §11). CI repeats it across fault seeds 1/7/42.
elastic-soak:
	$(GO) test -race -shuffle=on -count=1 ./internal/elastic/ ./internal/apps/xray/
	$(GO) test -race -shuffle=on -count=1 -run 'Elastic|Reconfigure|Split|Resize' ./internal/predata/ ./internal/mpi/ ./internal/dataspaces/
	$(GO) run ./cmd/predata-bench -experiment elastic -json BENCH_elastic.json

# adversary-soak runs the adversarial-wire suite: chunk integrity under
# wire and source corruption, quorum fencing and heal across staging
# partitions, control-plane dup suppression, hedged pulls (raced,
# shuffled), and the adversary experiment (DESIGN.md §13). CI repeats
# it across fault seeds 1/7/42.
adversary-soak:
	$(GO) test -race -shuffle=on -count=1 -run 'Adversary|Corrupt|Partition|Hedg|Dup|Quorum|Fence|Heal|Seal|Integrity' ./internal/faults/ ./internal/fabric/ ./internal/predata/ ./internal/staging/ ./internal/trace/
	$(GO) run ./cmd/predata-bench -experiment adversary -json BENCH_adversary.json

# restart-soak runs the durability suite: WAL framing/recovery units
# and fuzz seeds, journal-backed restart, whole-service crashall replay
# and checkpoint truncation through the pipeline, the revive/drain
# fabric paths (raced, shuffled), and the restart experiment
# (DESIGN.md §14). CI repeats it across fault seeds 1/7/42.
restart-soak:
	$(GO) test -race -shuffle=on -count=1 ./internal/wal/
	$(GO) test -race -shuffle=on -count=1 -run 'Restart|CrashAll|Checkpoint|Journal|Wal|WAL|Revive|Drain|DupState' ./internal/faults/ ./internal/fabric/ ./internal/predata/ ./internal/trace/ ./internal/dataspaces/
	$(GO) run ./cmd/predata-bench -experiment restart -json BENCH_restart.json

# serve-soak runs the multi-tenant streaming-service suite: the serve
# daemon units plus the query/tenant conformance scenarios (steady
# two-tenant, bursty xray, join/leave mid-stream, query storm under
# overload) and the cache key/staleness property tests — raced,
# shuffled, repeated — then the serve experiment (DESIGN.md §15). CI
# repeats it across fault seeds 1/7/42.
serve-soak:
	$(GO) test -race -shuffle=on -count=2 ./internal/serve/
	$(GO) test -race -shuffle=on -count=1 -run 'FairShare|Starv|Subscribe|VerifyServe|Tenant' ./internal/flowctl/ ./internal/dataspaces/ ./internal/trace/ ./internal/queryapp/ ./cmd/predata-serve/
	$(GO) run ./cmd/predata-bench -experiment serve -json BENCH_serve.json

evaluation:
	$(GO) run ./cmd/predata-bench -experiment all

clean:
	rm -rf bin
