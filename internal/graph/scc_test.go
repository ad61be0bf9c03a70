package graph

import (
	"reflect"
	"testing"
)

func TestSCC(t *testing.T) {
	// a→b→c→a is a ring with exits b→e and c→d; d has a self-loop, e
	// has no out-edges, and z is a root no edge reaches.
	adj := map[string][]string{
		"a": {"b"},
		"b": {"c", "e"},
		"c": {"a", "d"},
		"d": {"d"},
	}
	got := SCC([]string{"a", "d", "z"}, adj)
	// Completion order: d finishes first, then e, then the ring (popped
	// from the top of the stack), then the isolated root z.
	want := [][]string{{"d"}, {"e"}, {"c", "b", "a"}, {"z"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SCC = %v, want %v", got, want)
	}

	// A long chain must not recurse.
	chain := map[int][]int{}
	for i := 0; i < 100000; i++ {
		chain[i] = []int{i + 1}
	}
	chain[100000] = []int{0}
	if comps := SCC([]int{0}, chain); len(comps) != 1 || len(comps[0]) != 100001 {
		t.Fatalf("chain ring: %d components", len(comps))
	}
}
