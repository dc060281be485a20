# Development entry points. CI runs the same steps (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race chaos guard defense attackzoo goldens fuzz fmt vet lint vuln smoke serve obs

all: fmt vet build test

build:
	$(GO) build ./...

# bench/ is its own Go module, so ./... never reaches it; vet and short-test
# it separately, since it compiles against most of internal/.
test:
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

race:
	$(GO) test -race ./...

# chaos runs the whole suite under -race with the fault-injection layer on:
# the fault-aware tests read FAULT_RATE as their injection ceiling, so the
# retry / breaker / fallback paths and the checkpoint journal are exercised,
# while the determinism and zero-rung control assertions still hold.
FAULT_RATE ?= 0.2

chaos:
	FAULT_RATE=$(FAULT_RATE) $(GO) test -race ./...

# guard runs the guarded-update suite under -race: the snapshot codec, the
# advisor Snapshot/Restore round-trips, the restore-by-rewind differential
# test and the CountingSource clone, the guard state machine (canary gate,
# rollback, breaker, quarantine and its persisted sources, SIGKILL
# kill-and-resume), the guardsweep drivers, the cross-sweep agreement test
# and the config-naming journal keys (DESIGN.md §9).
guard:
	$(GO) test -race ./internal/snap/... ./internal/guard/... ./internal/advisor/... \
		-run 'Snapshot|Rewind|CountingSource|Guard|Quarantine|WriteFileAtomic|TryRestore|Persist'
	$(GO) test -race ./internal/experiments -run 'GuardSweep|GuardRates|SweepsAgree|JournalKey'

# defense runs the defense-family suite under -race: the sanitizer, the
# pluggable screener chain, the TRIM robust-retraining screeners (clean
# zero-false-positive, detection-regime, order-insensitivity and restore
# guarantees), the guard's screen stage, and the defensesweep ablation
# drivers (DESIGN.md §13).
defense:
	$(GO) test -race ./internal/defense/... ./internal/guard/...
	$(GO) test -race ./internal/experiments -run 'Defense|SweepsAgree|JournalKey'

# attackzoo runs the attack-zoo suite under -race — the injector contract
# tests (every registry member: resolvable SQL, size bound, fixed-seed
# determinism), the adaptive-attacker feedback loop, and the attackzoo
# experiment drivers (workers-width golden + journal resume) — then a
# fast-scale grid through the real binary with one injector per attack
# family (DESIGN.md §14).
attackzoo:
	$(GO) test -race ./internal/pipa/... -run 'Injector|OODColumn|Adapt'
	$(GO) test -race ./internal/experiments -run 'AttackZoo'
	$(GO) run -race ./cmd/pipa-bench -exp attackzoo -advisors Heuristic \
		-injectors FSM,PIPA,BAD+SUB,R-OOD,ADAPT -workers 4

# goldens reruns the Fig. 7 grid and the Fig. 8 case studies and compares
# their stdout, cache-stats trailer included, byte for byte with the committed
# results_fig7_tpch1.txt and results_fig8.txt. Both print the same bytes at
# any -workers. About 60 s and 7 s on 2 vCPUs.
goldens:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/pipa-bench" ./cmd/pipa-bench; \
	"$$tmp/pipa-bench" -exp fig8 > "$$tmp/fig8.txt"; cmp "$$tmp/fig8.txt" results_fig8.txt; \
	"$$tmp/pipa-bench" -exp fig7 > "$$tmp/fig7.txt"; cmp "$$tmp/fig7.txt" results_fig7_tpch1.txt

# serve runs the serving-daemon suite under -race: admission control, the
# degradation ladder, hot model swap, live rollback under load, the 2×
# capacity soak, and kill-and-resume (DESIGN.md §10).
serve:
	$(GO) test -race ./internal/serve/... ./internal/obs/... ./internal/cli/...

# smoke exercises the real advisord binary end to end: start, /readyz,
# recommend + guarded update over HTTP, trace retention at /debug/traces,
# SIGTERM, clean drain (exit 0) with a well-formed JSONL log and a report.
smoke:
	./scripts/smoke_advisord.sh

# obs runs the observability layer in isolation under -race: the concurrent
# trace/span tree, the flight recorder ring, the SLO burn windows, the JSONL
# logger and the byte-deterministic Prometheus export (DESIGN.md §11).
obs:
	$(GO) vet -tags race ./internal/obs/...
	$(GO) test -race ./internal/obs/... ./internal/cli/...

# fuzz gives each fuzzer a short budget on top of its checked-in corpus —
# a smoke pass, not a campaign (crank -fuzztime locally to hunt).
FUZZTIME ?= 10s

fuzz:
	$(GO) test ./internal/sql -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/snap -run '^$$' -fuzz FuzzSnapshotRestore -fuzztime $(FUZZTIME)
	$(GO) test ./internal/defense/trim -run '^$$' -fuzz FuzzTrimSubsetStable -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pipa -run '^$$' -fuzz FuzzInjectorBuild -fuzztime $(FUZZTIME)
	$(GO) test ./internal/nn -run '^$$' -fuzz FuzzMLPKernel -fuzztime $(FUZZTIME)

# lint and vuln expect the tools on PATH (CI installs pinned versions; see
# .github/workflows/ci.yml).
lint:
	staticcheck ./...

vuln:
	govulncheck ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...
