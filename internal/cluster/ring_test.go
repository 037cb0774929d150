package cluster

import (
	"fmt"
	"testing"
)

func TestRingDeterministicAcrossInputOrder(t *testing.T) {
	a := NewRing([]string{"n1", "n2", "n3"}, 64)
	b := NewRing([]string{"n3", "n1", "n2", "n1"}, 64) // shuffled + duplicate
	if a.Len() != 3 || b.Len() != 3 {
		t.Fatalf("Len = %d, %d; want 3, 3", a.Len(), b.Len())
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("view-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %q: owners diverge (%q vs %q) for the same member set",
				key, a.Owner(key), b.Owner(key))
		}
	}
}

func TestRingRebalanceMovesOnlyTheLostMembersKeys(t *testing.T) {
	members := make([]string, 10)
	for i := range members {
		members[i] = fmt.Sprintf("node-%d", i)
	}
	before := NewRing(members, 64)
	after := NewRing(members[1:], 64) // node-0 dies

	moved := 0
	const keys = 2000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("partition-%d", i)
		was, is := before.Owner(key), after.Owner(key)
		if was != is {
			moved++
			if was != "node-0" {
				t.Fatalf("key %q moved from %q to %q although %q survived", key, was, is, was)
			}
		}
	}
	// Consistent hashing moves ~1/10 of the keyspace; triple that bound
	// still catches accidental full-reshuffle (mod-N) behaviour.
	if moved == 0 || moved > keys*3/10 {
		t.Fatalf("%d of %d keys moved; want ~%d (1/10th)", moved, keys, keys/10)
	}
}

func TestRingOwnerIsEvenlySpread(t *testing.T) {
	r := NewRing([]string{"a", "b", "c", "d"}, DefaultVirtualNodes)
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for node, c := range counts {
		if c < keys/8 || c > keys/2 {
			t.Fatalf("node %q owns %d of %d keys; placement badly skewed: %v", node, c, keys, counts)
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil, 8)
	if r.Owner("x") != "" || r.Len() != 0 {
		t.Fatalf("empty ring should own nothing")
	}
}
