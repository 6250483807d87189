package main

import "testing"

// TestServeSoak runs a short seeded service soak, memory-only and over a
// fresh shared disk cache. serveSoak holds the server to its whole contract
// itself — bit-identical answers per config, a cold-run ground-truth sample,
// counters that conserve across admission, panics, aborts and disk refills —
// and returns the first breach.
func TestServeSoak(t *testing.T) {
	for _, tc := range []struct{ name, dir string }{{"memory", ""}, {"disk", t.TempDir()}} {
		t.Run(tc.name, func(t *testing.T) {
			if err := serveSoak(40, 0x5eed, false, tc.dir); err != nil {
				t.Fatal(err)
			}
		})
	}
}
