package main

import (
	"reflect"
	"testing"
)

// Each workload's op list is a pure function of the seed: the same seed
// gives the same list, another seed a different one, and op i does not
// depend on how long the list is.
func TestOpListsFollowTheSeed(t *testing.T) {
	gens := map[string]func(seed uint64, n int) any{
		"covert-arq":   func(s uint64, n int) any { return covertOps(s, n) },
		"characterize": func(s uint64, n int) any { return characterizeOps(s, n) },
		"sweep-fleet":  func(s uint64, n int) any { return fleetOps(s, n) },
	}
	for name, gen := range gens {
		a, b, c := gen(1, 5), gen(1, 5), gen(2, 5)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different op lists", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same op list", name)
		}
		long := reflect.ValueOf(gen(1, 9)).Slice(0, 5).Interface()
		if !reflect.DeepEqual(a, long) {
			t.Errorf("%s: the first ops changed with the list length", name)
		}
	}
	if _, ok := workloads["covert-arq"]; !ok || len(workloads) != 3 {
		t.Errorf("registered workloads: %v", workloads)
	}
}

func TestFleetUnitIDsAreDistinct(t *testing.T) {
	for _, units := range fleetOps(3, 4) {
		seen := map[string]bool{}
		for _, u := range units {
			if seen[string(u.ID)] {
				t.Fatalf("duplicate unit %s", u.ID)
			}
			seen[string(u.ID)] = true
		}
	}
}
