#!/bin/sh
# reach.sh is the keep rule for internal/: it prints everything that
# breaks it and exits 1 if there is anything. Its arguments are the root
# programs, then --, then the packages whose test binaries are roots as
# well; the reach target in the Makefile states both lists and the rule.
# Run it from the module root:
#
#	sh scripts/reach.sh ./cmd/graphd ./bench -- ./internal/experiments
#
# It reports a main package that is not a root program, an internal/
# package that no root imports, and an internal/ function or method that
# no root links.
set -eu
GO=${GO:-go}
roots= tests= after=
for a; do
	if [ "$a" = -- ]; then
		after=1
	elif [ -n "$after" ]; then
		tests="$tests $a"
	else
		roots="$roots $a"
	fi
done
if [ -z "$roots" ]; then
	echo "usage: reach.sh ROOT... [-- TESTROOT...]" >&2
	exit 2
fi
mod=$($GO list -m)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# Programs: every main in the module is a root.
$GO list $roots | sort >"$tmp/roots"
$GO list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./... | awk NF | sort |
	comm -23 - "$tmp/roots" | sed 's/$/: main package outside the reach roots/' >"$tmp/bad"
# Packages: every internal/ package is imported by a root.
{
	$GO list -deps $roots
	[ -z "$tests" ] || $GO list -deps -test $tests
} | sort -u >"$tmp/imported"
$GO list ./internal/... | sort | comm -23 - "$tmp/imported" |
	sed 's/$/: package no root imports/' >>"$tmp/bad"
# Functions: inlining off, so a function that is only ever inlined
# still has a symbol.
mkdir "$tmp/bin"
$GO build -gcflags=all=-l -o "$tmp/bin/" $roots
for p in $tests; do
	$GO test -c -gcflags=all=-l -o "$tmp/bin/${p##*/}.test" "$p"
done
# Code symbols of internal/, generic instances cut at their first '[',
# closures, method values and pointer receivers folded into their function.
funcs() {
	awk '$2 == "T" || $2 == "t" { sub(/^ *[0-9a-f]+ [Tt] /, ""); print }' |
		sed -n -E "s/\[.*//; s/-fm$//; s/\(\*([^)]*)\)?/\1/; s/(\.(func|gowrap|deferwrap)[0-9]+)+(\.[0-9]+)*$//; \#^$mod/internal/#p" | sort -u
}
for f in "$tmp/bin"/*; do $GO tool nm -type "$f"; done | funcs >"$tmp/linked"
$GO list -export -gcflags=all=-l -f '{{.Export}}' ./internal/... | xargs -n1 $GO tool nm -type | funcs >"$tmp/declared"
# The compiler emits a wrapper for every method of a declared interface.
grep -rE '^\s*(type\s+)?[A-Za-z_][A-Za-z0-9_]*\s+interface\s*\{' --include='*.go' --exclude='*_test.go' internal |
	sed -E "s#^(.*)/[^/]*\.go:\s*(type\s+)?([A-Za-z0-9_]+).*#$mod/\1.\3.#" >"$tmp/ifaces"
comm -13 "$tmp/linked" "$tmp/declared" | grep -v -E '\.init$' | grep -v -F -f "$tmp/ifaces" |
	cat "$tmp/bad" - | awk '{ print; bad = 1 } END { exit bad }'
