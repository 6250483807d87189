package main

import (
	"bytes"
	"strings"
	"testing"

	"hugeomp/internal/core"
)

// TestFaultSoak runs chaos's default campaign — 50 seeded fault plans over
// CG, MG and SP at class T — and requires every run to verify with
// fault-free numerics, hold every invariant and replay bit-identically. Its
// transparent-policy plans drive the access engines with a fault handler
// installed, under injected THP faults.
func TestFaultSoak(t *testing.T) {
	const plans, seed = 50, 0x5eed
	transparent := 0
	for i := 0; i < plans; i++ {
		if newCampaign(seed, i, 2).policy == core.PolicyTransparent {
			transparent++
		}
	}
	if transparent == 0 {
		t.Fatal("the default campaign has no transparent-policy plan")
	}
	var out bytes.Buffer
	if err := faultSoak(&out, plans, []string{"CG", "MG", "SP"}, "T", 2, seed, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "all runs verified, invariants held, replays identical") {
		t.Errorf("soak report lacks its summary line:\n%s", out.String())
	}
}
