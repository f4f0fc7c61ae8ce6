# Development targets for the repro repository.

GO ?= go

.PHONY: build test race vet fmt lint graphlint reach fuzz graphd

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails (not just lists) when any file needs gofmt, so CI cannot
# silently pass on unformatted code.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

# graphlint runs the custom invariant analyzers (internal/lint) over
# the whole tree — determinism, workspace pooling, atomic persistence
# writes, api error envelopes, context-responsive loops, read-only
# graph-storage aliases. See docs/lint.md for the invariant table and
# suppression convention.
graphlint:
	$(GO) run ./cmd/graphlint ./...

# lint is the full static gate: go vet over every package, then the
# graphlint suite (which also analyzes its own sources).
lint: vet graphlint

# reach is the keep rule for internal/, at two granularities; it prints
# what breaks either rule and fails if anything does.
#  - Packages: an internal/ package stays only if graphd, graphctl,
#    graphlint, promcheck, the benchmark (bench/), or the tests of
#    internal/experiments (the paper-claim tests) or internal/lint
#    import it.
#  - Functions (scripts/reach.sh): an internal/ function or method stays
#    only if a program links it: any main under cmd/ or examples/,
#    bench/, or the internal/experiments and internal/lint test
#    binaries. Everything is built with inlining off and `go tool nm` of
#    the programs is diffed against each package archive. Generic
#    instances count under their name cut at the first '['; init and the
#    compiler's wrappers for interface methods are skipped. A generic
#    function that is never instantiated emits no symbol, so this rule
#    cannot see it. Reference implementations that only tests use
#    belong in _test.go files.
REACH_ROOTS = ./cmd/graphd ./cmd/graphctl ./cmd/graphlint ./cmd/promcheck ./bench
REACH_TEST_ROOTS = ./internal/experiments ./internal/lint
reach:
	@reached=$$($(GO) list -deps $(REACH_ROOTS)) && \
	tested=$$($(GO) list -deps -test $(REACH_TEST_ROOTS)) && \
	all=$$($(GO) list ./internal/...) && \
	printf '%s\n' "$$reached" "$$tested" -- "$$all" | \
		awk '$$1 == "--" { tail = 1; next } !tail { seen[$$1] = 1; next } !seen[$$1] { print; bad = 1 } END { exit bad }'
	@GO=$(GO) sh scripts/reach.sh

# fuzz gives the seed corpora a short budget against the binary
# decoders (snapshots, mapped snapshots, WAL replay, edge lists), the
# ppr reply codec and the edge-batch request codec (both differentially,
# against encoding/json), and graphd's request bodies end to end
# (FuzzAPIDecode: no panic, no 5xx but a deadline, typed errors); CI
# runs this on every push and on a weekly schedule.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadSnapshot -fuzztime $(FUZZTIME) ./internal/persist
	$(GO) test -run '^$$' -fuzz FuzzOpenMapped -fuzztime $(FUZZTIME) ./internal/persist
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/persist
	$(GO) test -run '^$$' -fuzz FuzzReadEdgeList -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzPPRReplyCodec -fuzztime $(FUZZTIME) ./pkg/api
	$(GO) test -run '^$$' -fuzz FuzzEdgeBatchCodec -fuzztime $(FUZZTIME) ./pkg/api
	$(GO) test -run '^$$' -fuzz FuzzAPIDecode -fuzztime $(FUZZTIME) ./internal/service

graphd:
	$(GO) build -o graphd ./cmd/graphd
