package npb

import (
	"strings"
	"testing"

	"hugeomp/internal/core"
	"hugeomp/internal/machine"
)

func runOne(t *testing.T, name string, cfg RunConfig) Result {
	t.Helper()
	k, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(k, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func TestAllKernelsRunAndVerifyClassT(t *testing.T) {
	for _, name := range Names() {
		for _, policy := range []core.PagePolicy{core.Policy4K, core.Policy2M, core.PolicyMixed} {
			res := runOne(t, name, RunConfig{
				Model:   machine.Opteron270(),
				Threads: 2,
				Policy:  policy,
				Class:   ClassT,
			})
			if res.Cycles == 0 {
				t.Errorf("%s/%v: zero cycles", name, policy)
			}
			if res.Counters.Accesses() == 0 {
				t.Errorf("%s/%v: no simulated accesses", name, policy)
			}
		}
	}
}

func TestAllKernelsOnXeonWithSMT(t *testing.T) {
	for _, name := range Names() {
		res := runOne(t, name, RunConfig{
			Model:   machine.XeonHT(),
			Threads: 8,
			Policy:  core.Policy4K,
			Class:   ClassT,
		})
		if res.Counters.SMTSwitches == 0 {
			t.Errorf("%s: no SMT switches at 8 threads on the Xeon", name)
		}
	}
}

func TestResultsIndependentOfThreadsAndPages(t *testing.T) {
	// CG's residual path is identical regardless of thread count and page
	// size: the simulation changes timing, never values.
	ref := func(threads int, policy core.PagePolicy) float64 {
		k := NewCG()
		if _, err := Run(k, RunConfig{
			Model: machine.Opteron270(), Threads: threads, Policy: policy, Class: ClassT,
		}); err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, v := range k.z.Data {
			s += v
		}
		return s
	}
	base := ref(1, core.Policy4K)
	// Reduction combine order differs with the partition, so allow float
	// reassociation noise; page size must change nothing at all for a fixed
	// thread count.
	close := func(a, b float64) bool {
		if a == b {
			return true
		}
		d := a - b
		if d < 0 {
			d = -d
		}
		m := b
		if m < 0 {
			m = -m
		}
		return d <= 1e-9*m
	}
	for _, th := range []int{2, 4} {
		if got := ref(th, core.Policy4K); !close(got, base) {
			t.Errorf("threads=%d: residual %g != %g", th, got, base)
		}
	}
	if got, want := ref(4, core.Policy2M), ref(4, core.Policy4K); got != want {
		t.Errorf("2M pages changed the numerics: %g != %g", got, want)
	}
}

func TestLargePagesReduceWalksClassS(t *testing.T) {
	// The paper's core claim at kernel level: CG, SP, MG see large DTLB
	// walk reductions with 2MB pages.
	for _, name := range []string{"CG", "SP", "MG"} {
		r4 := runOne(t, name, RunConfig{
			Model: machine.Opteron270(), Threads: 4, Policy: core.Policy4K, Class: ClassS,
		})
		r2 := runOne(t, name, RunConfig{
			Model: machine.Opteron270(), Threads: 4, Policy: core.Policy2M, Class: ClassS,
		})
		if r2.Counters.DTLBWalks()*2 >= r4.Counters.DTLBWalks() {
			t.Errorf("%s: 2M walks %d not well below 4K walks %d",
				name, r2.Counters.DTLBWalks(), r4.Counters.DTLBWalks())
		}
		if r2.Cycles > r4.Cycles {
			t.Errorf("%s: 2M pages slower (%d > %d cycles)", name, r2.Cycles, r4.Cycles)
		}
	}
}

func TestFootprintsReported(t *testing.T) {
	res := runOne(t, "CG", RunConfig{
		Model: machine.Opteron270(), Threads: 1, Policy: core.Policy4K, Class: ClassT,
	})
	if res.DataMB <= 0 || res.InstrMB <= 0 {
		t.Errorf("footprints: data %.2f instr %.2f", res.DataMB, res.InstrMB)
	}
}

func TestParseClass(t *testing.T) {
	for s, want := range map[string]Class{"T": ClassT, "s": ClassS, "W": ClassW, "a": ClassA} {
		got, err := ParseClass(s)
		if err != nil || got != want {
			t.Errorf("ParseClass(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseClass("B"); err == nil {
		t.Error("class B should be rejected (not simulatable at full scale)")
	}
}

func TestUnknownKernel(t *testing.T) {
	if _, err := New("LU"); err == nil {
		t.Error("LU is not in the paper's suite")
	}
}

// TestKernelNameMatchesNew: KernelName gives the Name of the kernel New
// builds for every spelling New accepts, and New's error for every other.
func TestKernelNameMatchesNew(t *testing.T) {
	for _, name := range Names() {
		for _, s := range []string{name, strings.ToLower(name)} {
			k, err := New(s)
			if err != nil {
				t.Fatalf("New(%q): %v", s, err)
			}
			if got, err := KernelName(s); err != nil || got != k.Name() {
				t.Errorf("KernelName(%q) = %q, %v; New(%q).Name() = %q", s, got, err, s, k.Name())
			}
		}
	}
	for _, s := range []string{"", "LU", "Cg", "cG", " CG", "CG ", "sp\x00"} {
		_, nerr := New(s)
		got, kerr := KernelName(s)
		if nerr == nil || kerr == nil || got != "" || kerr.Error() != nerr.Error() {
			t.Errorf("%q: KernelName = %q, %v; New error %v", s, got, kerr, nerr)
		}
	}
}

func TestLCGDeterminism(t *testing.T) {
	a, b := newLCG(7), newLCG(7)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("lcg not deterministic")
		}
	}
	r := newLCG(9)
	vals := r.uniqueSorted(10, 100)
	if len(vals) != 10 {
		t.Fatal("uniqueSorted count")
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			t.Fatal("uniqueSorted not strictly increasing")
		}
	}
	for i := 0; i < 1000; i++ {
		f := r.float()
		if f < 0 || f >= 1 {
			t.Fatalf("float out of range: %v", f)
		}
	}
}

// TestCoherentTrueSharingIntegration: a coherent model and any sharing mode
// but partitioned reach a kernel run only as errors, cold and through a warm
// fork — never a run whose counters depend on host scheduling.
func TestCoherentTrueSharingIntegration(t *testing.T) {
	base := RunConfig{Model: machine.Opteron270(), Threads: 2, Policy: core.Policy4K, Class: ClassT, Iterations: 1}
	coherent, trueShared := base, base
	coherent.Model.Coherent = true
	trueShared.Sharing = machine.SharePartition + 1
	w, err := NewWarm("CG", base)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]RunConfig{"coherent": coherent, "true-shared": trueShared} {
		if _, err := Run(NewCG(), cfg); err == nil {
			t.Errorf("%s: cold run accepted", name)
		}
		if _, err := w.Run(cfg); err == nil {
			t.Errorf("%s: warm run accepted", name)
		}
	}
}
