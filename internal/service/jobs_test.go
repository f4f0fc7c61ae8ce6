package service

import (
	"strings"
	"testing"
)

func TestCanonicalJSON(t *testing.T) {
	a, err := canonicalJSON([]byte(`{"b":1, "a":{"y":2,"x":[1,2]},"s":"t"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := canonicalJSON([]byte(`{"s":"t","a":{"x":[1,2],"y":2},"b":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("key order changed the canonical form:\n%s\n%s", a, b)
	}
	// int64 beyond 2^53 must keep exact digits (json.Number, not float64).
	big, err := canonicalJSON([]byte(`{"base_seed":9007199254740993}`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(big, "9007199254740993") {
		t.Fatalf("large int64 lost precision: %s", big)
	}
	if _, err := canonicalJSON([]byte(`{"a":`)); err == nil {
		t.Fatal("truncated JSON should not canonicalize")
	}
}
