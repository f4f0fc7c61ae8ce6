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

# reach is the keep rule for internal/ (scripts/reach.sh); it prints
# what breaks the rule and fails if anything does. The roots are the
# system, stated once here: the programs in REACH_ROOTS — the daemon, its
# CLI, the lint and exposition checkers, the claim and figure runner, the
# offline snapshot writer, the load driver, the SDK tour and the
# benchmark — and the test binaries of REACH_TEST_ROOTS, the paper-claim
# tests (internal/experiments) and the lint suite (internal/lint).
#  - Programs: every main package in the module is in REACH_ROOTS, so a
#    new program cannot widen the roots, or escape them, unstated.
#  - Packages: an internal/ package stays only if a root imports it.
#  - Functions: an internal/ function or method stays only if a root
#    links it. Everything is built with inlining off and `go tool nm` of
#    the roots is diffed against each package archive. Generic instances
#    count under their name cut at the first '['; init and the
#    compiler's wrappers for interface methods are skipped. A generic
#    function that is never instantiated emits no symbol, so this rule
#    cannot see it. Reference implementations that only tests use
#    belong in _test.go files.
REACH_ROOTS = ./cmd/graphd ./cmd/graphctl ./cmd/graphlint ./cmd/promcheck \
	./cmd/experiments ./cmd/gengraph ./cmd/graphload ./examples/serving ./bench
REACH_TEST_ROOTS = ./internal/experiments ./internal/lint
reach:
	@GO=$(GO) sh scripts/reach.sh $(REACH_ROOTS) -- $(REACH_TEST_ROOTS)

# fuzz gives the seed corpora a short budget against the binary
# decoders (snapshots, mapped snapshots, WAL replay, edge lists), the
# ppr reply codec and the ppr and edge-batch request codecs (all
# differentially, against encoding/json), and graphd's request bodies
# end to end (FuzzAPIDecode: no panic, no 5xx but a deadline, typed errors); CI
# runs this on every push and on a weekly schedule.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadSnapshot -fuzztime $(FUZZTIME) ./internal/persist
	$(GO) test -run '^$$' -fuzz FuzzOpenMapped -fuzztime $(FUZZTIME) ./internal/persist
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/persist
	$(GO) test -run '^$$' -fuzz FuzzReadEdgeList -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzPPRReplyCodec -fuzztime $(FUZZTIME) ./pkg/api
	$(GO) test -run '^$$' -fuzz FuzzEdgeBatchCodec -fuzztime $(FUZZTIME) ./pkg/api
	$(GO) test -run '^$$' -fuzz FuzzPPRRequestCodec -fuzztime $(FUZZTIME) ./pkg/api
	$(GO) test -run '^$$' -fuzz FuzzAPIDecode -fuzztime $(FUZZTIME) ./internal/service

graphd:
	$(GO) build -o graphd ./cmd/graphd
