package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// ringKeys generates deterministic pseudo-session ids.
func ringKeys(n int) []string {
	rng := rand.New(rand.NewSource(42))
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64())
	}
	return keys
}

func ringNodes(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("w%d", i)
	}
	return nodes
}

// Members returns the member ids, sorted.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.members))
	for n := range r.members {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestLookupMapsEveryKeyToOneLiveNode: property (a) — with any non-empty
// member set, every key resolves to exactly one node, and it is a member.
func TestLookupMapsEveryKeyToOneLiveNode(t *testing.T) {
	keys := ringKeys(10000)
	for _, n := range []int{1, 2, 3, 5, 8} {
		r := NewRing(0)
		for _, w := range ringNodes(n) {
			r.Add(w)
		}
		members := map[string]bool{}
		for _, m := range r.Members() {
			members[m] = true
		}
		for _, k := range keys {
			owner := r.Lookup(k)
			if !members[owner] {
				t.Fatalf("n=%d: Lookup(%q) = %q, not a member", n, k, owner)
			}
			pref := r.LookupN(k, n)
			if len(pref) != n {
				t.Fatalf("n=%d: LookupN returned %d nodes, want %d", n, len(pref), n)
			}
			if pref[0] != owner {
				t.Fatalf("n=%d: LookupN[0] = %q, Lookup = %q", n, pref[0], owner)
			}
			seen := map[string]bool{}
			for _, p := range pref {
				if seen[p] {
					t.Fatalf("n=%d: LookupN repeated node %q", n, p)
				}
				seen[p] = true
			}
		}
	}
}

// TestMembershipChangeMovesOnlyTheAffectedArcs: property (b) — adding a
// node moves keys only *to* it; removing a node moves only *its* keys; and
// the moved fraction is close to the ideal 1/N.
func TestMembershipChangeMovesOnlyTheAffectedArcs(t *testing.T) {
	keys := ringKeys(20000)
	for _, n := range []int{3, 4, 8} {
		nodes := ringNodes(n)
		r := NewRing(0)
		for _, w := range nodes {
			r.Add(w)
		}
		before := make(map[string]string, len(keys))
		for _, k := range keys {
			before[k] = r.Lookup(k)
		}

		// Add one node: every key either stays put or moves to the new node.
		added := "wNEW"
		r.Add(added)
		moved := 0
		for _, k := range keys {
			after := r.Lookup(k)
			if after != before[k] {
				if after != added {
					t.Fatalf("n=%d add: key %q moved %q -> %q (not the added node)",
						n, k, before[k], after)
				}
				moved++
			}
		}
		ideal := float64(len(keys)) / float64(n+1)
		if f := float64(moved); f > 2*ideal || f < ideal/2 {
			t.Fatalf("n=%d add: %d keys moved, ideal %.0f (want within [0.5x, 2x])",
				n, moved, ideal)
		}

		// Remove it again: assignments return exactly to the original map
		// (removal moves only the removed node's keys, and placement is a
		// pure function of the member set).
		r.Remove(added)
		for _, k := range keys {
			if got := r.Lookup(k); got != before[k] {
				t.Fatalf("n=%d remove: key %q at %q, want original %q", n, k, got, before[k])
			}
		}

		// Remove an original node: only its keys move, and each moves to its
		// preference-list successor (what the router relies on for failover).
		victim := nodes[0]
		pref := make(map[string][]string, len(keys))
		for _, k := range keys {
			pref[k] = r.LookupN(k, 2)
		}
		r.Remove(victim)
		movedOff := 0
		for _, k := range keys {
			after := r.Lookup(k)
			if before[k] != victim {
				if after != before[k] {
					t.Fatalf("n=%d remove victim: key %q on %q moved to %q", n, k, before[k], after)
				}
				continue
			}
			movedOff++
			if want := pref[k][1]; after != want {
				t.Fatalf("n=%d remove victim: key %q moved to %q, want successor %q",
					n, k, after, want)
			}
		}
		ideal = float64(len(keys)) / float64(n)
		if f := float64(movedOff); f > 2*ideal || f < ideal/2 {
			t.Fatalf("n=%d remove victim: %d keys moved, ideal %.0f", n, movedOff, ideal)
		}
	}
}

// TestPlacementDeterministicAcrossRestarts: property (c) — rings built in
// different orders (a restarted router re-reading its worker flags) agree
// on every key.
func TestPlacementDeterministicAcrossRestarts(t *testing.T) {
	nodes := ringNodes(5)
	a := NewRing(0)
	for _, w := range nodes {
		a.Add(w)
	}
	b := NewRing(0)
	for i := len(nodes) - 1; i >= 0; i-- { // reverse insertion order
		b.Add(nodes[i])
	}
	// Membership churn that ends at the same set must also converge.
	c := NewRing(0)
	for _, w := range nodes {
		c.Add(w)
	}
	c.Add("transient")
	c.Remove("transient")
	c.Remove(nodes[2])
	c.Add(nodes[2])

	for _, k := range ringKeys(10000) {
		x, y, z := a.Lookup(k), b.Lookup(k), c.Lookup(k)
		if x != y || x != z {
			t.Fatalf("key %q: placements diverge: %q / %q / %q", k, x, y, z)
		}
	}
}

// TestRingBalance: virtual nodes keep per-node load within a reasonable
// factor of even.
func TestRingBalance(t *testing.T) {
	r := NewRing(0)
	nodes := ringNodes(4)
	for _, w := range nodes {
		r.Add(w)
	}
	counts := map[string]int{}
	keys := ringKeys(40000)
	for _, k := range keys {
		counts[r.Lookup(k)]++
	}
	ideal := len(keys) / len(nodes)
	for _, w := range nodes {
		if c := counts[w]; c < ideal/2 || c > 2*ideal {
			t.Fatalf("node %s owns %d keys, ideal %d: ring badly unbalanced (%v)",
				w, c, ideal, counts)
		}
	}
}

// TestRingDegenerate covers the empty and single-member edges.
func TestRingDegenerate(t *testing.T) {
	r := NewRing(0)
	if got := r.Lookup("k"); got != "" {
		t.Fatalf("empty ring Lookup = %q, want \"\"", got)
	}
	if got := r.LookupN("k", 3); got != nil {
		t.Fatalf("empty ring LookupN = %v, want nil", got)
	}
	r.Add("only")
	r.Add("only") // double-add is a no-op
	if got := r.Lookup("k"); got != "only" {
		t.Fatalf("Lookup = %q, want only", got)
	}
	if got := len(r.points); got != ringReplicas {
		t.Fatalf("double Add grew points to %d, want %d", got, ringReplicas)
	}
	r.Remove("absent") // no-op
	r.Remove("only")
	if r.Len() != 0 || r.Lookup("k") != "" {
		t.Fatalf("ring not empty after removing last member")
	}
}
