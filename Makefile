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

# reach is the keep rule for internal/: a package stays only if graphd,
# its CLIs, the benchmark, or a paper-claim test (internal/experiments)
# or the lint suite reaches it. It prints every internal/ package that
# none of these roots imports and fails if there is one.
REACH_ROOTS = ./cmd/graphd ./cmd/graphctl ./cmd/graphlint ./cmd/promcheck ./bench
REACH_TEST_ROOTS = ./internal/experiments ./internal/lint
reach:
	@reached=$$($(GO) list -deps $(REACH_ROOTS)) && \
	tested=$$($(GO) list -deps -test $(REACH_TEST_ROOTS)) && \
	all=$$($(GO) list ./internal/...) && \
	printf '%s\n' "$$reached" "$$tested" -- "$$all" | \
		awk '$$1 == "--" { tail = 1; next } !tail { seen[$$1] = 1; next } !seen[$$1] { print; bad = 1 } END { exit bad }'

# fuzz gives the seed corpora a short budget against the binary
# decoders (snapshots, mapped snapshots, WAL replay, edge lists), the
# ppr reply codec and the edge-batch request codec (both differentially,
# against encoding/json); CI runs this on every push and on a weekly
# schedule.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadSnapshot -fuzztime $(FUZZTIME) ./internal/persist
	$(GO) test -run '^$$' -fuzz FuzzOpenMapped -fuzztime $(FUZZTIME) ./internal/persist
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/persist
	$(GO) test -run '^$$' -fuzz FuzzReadEdgeList -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzPPRReplyCodec -fuzztime $(FUZZTIME) ./pkg/api
	$(GO) test -run '^$$' -fuzz FuzzEdgeBatchCodec -fuzztime $(FUZZTIME) ./pkg/api

graphd:
	$(GO) build -o graphd ./cmd/graphd
