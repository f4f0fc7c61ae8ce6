#!/bin/sh
# reach.sh prints every internal/ function or method that no program
# links and exits 1 if there is one. See the reach target in the
# Makefile for the rule and its roots. Run it from the module root.
set -eu
GO=${GO:-go}
mod=$($GO list -m)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# Inlining off, so a function that is only ever inlined still has a symbol.
$GO build -gcflags=all=-l -o "$tmp/" \
	$($GO list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/... ./bench)
for p in ./internal/experiments ./internal/lint; do
	$GO test -c -gcflags=all=-l -o "$tmp/${p##*/}.test" "$p"
done
# Code symbols of internal/, generic instances cut at their first '[',
# closures, method values and pointer receivers folded into their function.
funcs() {
	awk '$2 == "T" || $2 == "t" { sub(/^ *[0-9a-f]+ [Tt] /, ""); print }' |
		sed -n -E "s/\[.*//; s/-fm$//; s/\(\*([^)]*)\)?/\1/; s/(\.(func|gowrap|deferwrap)[0-9]+)+(\.[0-9]+)*$//; \#^$mod/internal/#p" | sort -u
}
for f in "$tmp"/*; do $GO tool nm -type "$f"; done | funcs >"$tmp/linked"
$GO list -export -gcflags=all=-l -f '{{.Export}}' ./internal/... | xargs -n1 $GO tool nm -type | funcs >"$tmp/declared"
# The compiler emits a wrapper for every method of a declared interface.
grep -rE '^\s*(type\s+)?[A-Za-z_][A-Za-z0-9_]*\s+interface\s*\{' --include='*.go' --exclude='*_test.go' internal |
	sed -E "s#^(.*)/[^/]*\.go:\s*(type\s+)?([A-Za-z0-9_]+).*#$mod/\1.\3.#" >"$tmp/ifaces"
comm -13 "$tmp/linked" "$tmp/declared" | grep -v -E '\.init$' | grep -v -F -f "$tmp/ifaces" | awk '{ print; bad = 1 } END { exit bad }'
