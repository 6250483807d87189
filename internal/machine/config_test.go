package machine

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hugeomp/internal/pagetable"
	"hugeomp/internal/tlb"
	"hugeomp/internal/units"
)

const sampleConfig = `{
  "name": "TestChip",
  "chips": 1, "coresPerChip": 2, "threadsPerCore": 2,
  "smt": "interleave",
  "itlb": {"l1": {"e4k": {"entries": 32}, "e2m": {"entries": 4}}},
  "dtlb": {"l1": {"e4k": {"entries": 32}, "e2m": {"entries": 4}},
           "l2": {"e4k": {"entries": 256, "ways": 4}}},
  "l1d": {"sizeKB": 16, "ways": 4},
  "l2":  {"sizeKB": 512, "ways": 8, "perChip": true},
  "costs": {"walkRefCyc": 150, "clockGHz": 3.0}
}`

func TestLoadModelFromJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chip.json")
	if err := os.WriteFile(path, []byte(sampleConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "TestChip" || m.MaxThreads() != 4 {
		t.Errorf("model = %s, %d threads", m.Name, m.MaxThreads())
	}
	if m.SMT != SMTInterleave {
		t.Errorf("smt = %v", m.SMT)
	}
	if m.Costs.WalkRefCyc != 150 || m.Costs.ClockGHz != 3.0 {
		t.Errorf("cost overrides not applied: %+v", m.Costs)
	}
	// Non-overridden costs inherit defaults.
	if m.Costs.MemCyc != DefaultCosts().MemCyc {
		t.Errorf("MemCyc = %d, want default", m.Costs.MemCyc)
	}
	if m.DTLB.L2.E4K.Entries != 256 || m.DTLB.L2.E2M.Entries != 0 {
		t.Errorf("DTLB spec = %+v", m.DTLB)
	}
	if m.L2.SizeBytes != 512*units.KB || !m.L2PerChip {
		t.Errorf("L2 = %+v perChip=%v", m.L2, m.L2PerChip)
	}

	// The loaded model runs.
	mac := New(m)
	pt := pagetable.New()
	if err := pt.Map(0, units.Size4K, 1, pagetable.ProtRW); err != nil {
		t.Fatal(err)
	}
	mac.AttachProcess(pt)
	ctxs, err := mac.Configure(4)
	if err != nil {
		t.Fatal(err)
	}
	ctxs[0].Load(8)
	if ctxs[0].Ctr.Loads != 1 {
		t.Error("loaded model does not simulate")
	}
}

func TestModelConfigValidation(t *testing.T) {
	base := func() ModelConfig {
		return ModelConfig{
			Name: "X", Chips: 1, CoresPerChip: 1, ThreadsPerCore: 1,
			DTLB: TLBSpecConfig{L1: TLBLevelConfig{E4K: TLBEntryConfig{Entries: 16}}},
			L1D:  CacheConfig{SizeKB: 16, Ways: 2},
			L2:   CacheConfig{SizeKB: 256, Ways: 4},
		}
	}
	good := base()
	if _, err := good.Model(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*ModelConfig)
	}{
		{"no name", func(c *ModelConfig) { c.Name = "" }},
		{"zero cores", func(c *ModelConfig) { c.CoresPerChip = 0 }},
		{"smt without policy", func(c *ModelConfig) { c.ThreadsPerCore = 2 }},
		{"bad smt", func(c *ModelConfig) { c.SMT = "hyper" }},
		{"no dtlb", func(c *ModelConfig) { c.DTLB.L1.E4K.Entries = 0 }},
		{"no l2", func(c *ModelConfig) { c.L2.SizeKB = 0 }},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mutate(&cfg)
		if _, err := cfg.Model(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestLoadModelErrors(t *testing.T) {
	if _, err := LoadModel("/does/not/exist.json"); err == nil {
		t.Error("missing file accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	_ = os.WriteFile(path, []byte("{not json"), 0o644)
	if _, err := LoadModel(path); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestConfigureRefusesITLBSecondLevel: no counter records an ITLB
// second-level hit, so a model whose ITLB declares a second level, built in
// Go or loaded from JSON, is refused with an *UnsupportedModelError at
// Configure, as a coherent model is.
func TestConfigureRefusesITLBSecondLevel(t *testing.T) {
	withL2 := Opteron270()
	withL2.ITLB.L2.E4K = tlb.Config{Entries: 512, Ways: 4}
	large := Opteron270()
	large.ITLB.L2.E2M = tlb.Config{Entries: 8}
	coherent := Opteron270()
	coherent.Coherent = true
	path := filepath.Join(t.TempDir(), "chip.json")
	withL2JSON := strings.Replace(sampleConfig, `"itlb": {"l1": {"e4k": {"entries": 32}, "e2m": {"entries": 4}}}`,
		`"itlb": {"l1": {"e4k": {"entries": 32}, "e2m": {"entries": 4}}, "l2": {"e4k": {"entries": 64, "ways": 4}}}`, 1)
	if err := os.WriteFile(path, []byte(withL2JSON), 0o644); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		model  Model
		reason string
	}{
		{withL2, "an ITLB with a second level"},
		{large, "an ITLB with a second level"},
		{fromJSON, "an ITLB with a second level"},
		{coherent, "coherent models are not supported"},
	} {
		m := New(c.model)
		m.AttachProcess(pagetable.New())
		_, err := m.Configure(1)
		var unsupported *UnsupportedModelError
		if !errors.As(err, &unsupported) || unsupported.Model != c.model.Name ||
			!strings.HasPrefix(unsupported.Reason, c.reason) {
			t.Errorf("%s: Configure = %v, want an *UnsupportedModelError: %s", c.model.Name, err, c.reason)
		}
	}
}
