package npb

import (
	"math"
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
			before := sharedStatics(t, w.kern)

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
					t.Errorf("fork %d: %v", i, errs[i])
					continue
				}
				if !reflect.DeepEqual(cold, results[i]) {
					t.Errorf("fork %d diverged from cold run (cross-fork write leak?)\ncold: %+v\nfork: %+v",
						i, cold, results[i])
				}
			}
			after := sharedStatics(t, w.kern)
			for arr, b := range before {
				if len(b) == 0 || len(after[arr]) != len(b) {
					t.Errorf("shared %s: %d elements before the forks, %d after", arr, len(b), len(after[arr]))
				}
				for i, v := range after[arr] {
					if v != b[i] {
						t.Errorf("frozen template mutated by forked runs: %s[%d] bits %#x -> %#x", arr, i, b[i], v)
						break
					}
				}
			}
		})
	}
}

// sharedStatics copies, as raw bits, the arrays that every fork of template k
// shares read-only (fork.go's split): CG's matrix and right-hand side, BT's
// forcing, SP's rho, FT's pristine grid and MG's input field.
func sharedStatics(t *testing.T, k Kernel) map[string][]uint64 {
	t.Helper()
	floats := func(d []float64) []uint64 {
		out := make([]uint64, len(d))
		for i, v := range d {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	ints := func(d []int64) []uint64 {
		out := make([]uint64, len(d))
		for i, v := range d {
			out[i] = uint64(v)
		}
		return out
	}
	switch v := k.(type) {
	case *CG:
		return map[string][]uint64{
			"a": floats(v.a.Data), "colidx": ints(v.colidx.Data),
			"rowstr": ints(v.rowstr.Data), "x": floats(v.x.Data),
		}
	case *BT:
		return map[string][]uint64{"forcing": floats(v.forcing.Data)}
	case *SP:
		return map[string][]uint64{"rho": floats(v.rho.Data)}
	case *FT:
		parts := make([]float64, 0, 2*len(v.orig))
		for _, c := range v.orig {
			parts = append(parts, real(c), imag(c))
		}
		return map[string][]uint64{"orig": floats(parts)}
	case *MG:
		return map[string][]uint64{"f[0]": floats(v.f[0].Data)}
	}
	t.Fatalf("no shared statics listed for %T", k)
	return nil
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
