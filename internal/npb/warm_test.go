package npb

import (
	"reflect"
	"sync"
	"testing"

	"hugeomp/internal/core"
	"hugeomp/internal/faultinject"
	"hugeomp/internal/machine"
)

// TestWarmForkEqualsCold is the correctness bar of the snapshot layer: a run
// forked from a warmed template must be bit-identical — every counter, cycle
// count and solution checksum — to a cold-constructed run of the same config.
func TestWarmForkEqualsCold(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := RunConfig{
				Model: machine.Opteron270(), Threads: 4, Policy: core.Policy2M, Class: ClassT,
			}
			w, err := NewWarm(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ck, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Run(ck, cfg)
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			warm, wsum, err := w.RunChecksum(cfg)
			if err != nil {
				t.Fatalf("warm: %v", err)
			}
			if !reflect.DeepEqual(cold, warm) {
				t.Errorf("forked result differs from cold run:\ncold: %+v\nwarm: %+v", cold, warm)
			}
			if csum := Checksum(ck); csum != wsum {
				t.Errorf("checksum: cold %v warm %v", csum, wsum)
			}
		})
	}
}

// TestWarmModelSwapEqualsCold: one warmed template serves an entire cost
// sweep — applying a different Model (and thread count) at fork time must
// match a cold run built with that model from scratch.
func TestWarmModelSwapEqualsCold(t *testing.T) {
	base := RunConfig{
		Model: machine.Opteron270(), Threads: 2, Policy: core.Policy4K, Class: ClassT,
	}
	w, err := NewWarm("cg", base)
	if err != nil {
		t.Fatal(err)
	}
	swept := base
	swept.Model = machine.XeonHT()
	swept.Model.Costs.WalkRefCyc *= 3
	swept.Model.Costs.MemCyc += 100
	swept.Threads = 8

	ck, err := New("cg")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(ck, swept)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	warm, err := w.Run(swept)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("model-swapped fork differs from cold run:\ncold: %+v\nwarm: %+v", cold, warm)
	}
}

// TestWarmForkIsolation: forks of one snapshot never observe each other's
// writes — concurrent forked runs of every kernel all reproduce the cold
// result, and the frozen template is left untouched by any of them. Under
// -race it also catches run-time scratch kept in the kernel's fields, which
// the forks share.
func TestWarmForkIsolation(t *testing.T) {
	cfg := RunConfig{
		Model: machine.Opteron270(), Threads: 4, Policy: core.PolicyMixed, Class: ClassT,
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := NewWarm(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			before := Checksum(w.kern)

			ck, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Run(ck, cfg)
			if err != nil {
				t.Fatalf("cold: %v", err)
			}

			const forks = 4
			results := make([]Result, forks)
			errs := make([]error, forks)
			var wg sync.WaitGroup
			for i := 0; i < forks; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i], errs[i] = w.Run(cfg)
				}(i)
			}
			wg.Wait()
			for i := 0; i < forks; i++ {
				if errs[i] != nil {
					t.Fatalf("fork %d: %v", i, errs[i])
				}
				if !reflect.DeepEqual(cold, results[i]) {
					t.Errorf("fork %d diverged from cold run (cross-fork write leak?)\ncold: %+v\nfork: %+v",
						i, cold, results[i])
				}
			}
			if after := Checksum(w.kern); after != before {
				t.Errorf("frozen template mutated by forked runs: checksum %v -> %v", before, after)
			}
		})
	}
}

// TestWarmRejectsIncompatibleConfigs: faulted configs and address-space
// reshaping must take the cold path.
func TestWarmRejectsIncompatibleConfigs(t *testing.T) {
	cfg := RunConfig{
		Model: machine.Opteron270(), Threads: 2, Policy: core.Policy4K, Class: ClassT,
	}
	w, err := NewWarm("sp", cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Policy = core.Policy2M
	if _, err := w.Run(bad); err == nil {
		t.Error("policy change accepted by warm run")
	}
	bad = cfg
	bad.Class = ClassS
	if _, err := w.Run(bad); err == nil {
		t.Error("class change accepted by warm run")
	}
	bad = cfg
	bad.Fault = &faultinject.Plan{}
	if _, err := w.Run(bad); err == nil {
		t.Error("fault plan accepted by warm run")
	}
	if _, err := NewWarm("sp", bad); err == nil {
		t.Error("fault plan accepted by warm template")
	}
}
