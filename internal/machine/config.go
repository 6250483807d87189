package machine

import (
	"encoding/json"
	"fmt"
	"os"

	"hugeomp/internal/cache"
	"hugeomp/internal/tlb"
	"hugeomp/internal/units"
)

// This file lets users define their own platform models as JSON, so the
// simulator can answer "what if the TLB were bigger / the walk slower /
// the L2 shared" without recompiling:
//
//	{
//	  "name": "MyChip",
//	  "chips": 2, "coresPerChip": 4, "threadsPerCore": 2,
//	  "smt": "interleave",
//	  "itlb": {"l1": {"e4k": {"entries": 64}, "e2m": {"entries": 8}}},
//	  "dtlb": {"l1": {"e4k": {"entries": 64}, "e2m": {"entries": 8}},
//	           "l2": {"e4k": {"entries": 512, "ways": 4}}},
//	  "l1d": {"sizeKB": 32, "ways": 8},
//	  "l2":  {"sizeKB": 1024, "ways": 16, "perChip": true},
//	  "costs": {"walkRefCyc": 100}
//	}
//
// Omitted cost fields inherit DefaultCosts; omitted TLB structures are
// absent (never hit).

// ModelConfig is the JSON form of a Model.
type ModelConfig struct {
	Name           string `json:"name"`
	Chips          int    `json:"chips"`
	CoresPerChip   int    `json:"coresPerChip"`
	ThreadsPerCore int    `json:"threadsPerCore"`
	SMT            string `json:"smt"` // "none", "flush" or "interleave"

	ITLB TLBSpecConfig `json:"itlb"`
	DTLB TLBSpecConfig `json:"dtlb"`

	L1D CacheConfig `json:"l1d"`
	L2  CacheConfig `json:"l2"`

	Coherent bool         `json:"coherent"` // Configure refuses true (see Model.Coherent)
	Costs    *CostsConfig `json:"costs"`
}

// TLBSpecConfig is the JSON form of a two-level TLB spec.
type TLBSpecConfig struct {
	L1 TLBLevelConfig `json:"l1"`
	L2 TLBLevelConfig `json:"l2"`
}

// TLBLevelConfig is one level's per-page-size entry classes.
type TLBLevelConfig struct {
	E4K TLBEntryConfig `json:"e4k"`
	E2M TLBEntryConfig `json:"e2m"`
}

// TLBEntryConfig sizes one TLB structure.
type TLBEntryConfig struct {
	Entries int `json:"entries"`
	Ways    int `json:"ways"`
}

// CacheConfig sizes one cache.
type CacheConfig struct {
	SizeKB  int64 `json:"sizeKB"`
	Ways    int   `json:"ways"`
	PerChip bool  `json:"perChip"` // only meaningful for L2
}

// CostsConfig overrides individual cost-model fields; zero values inherit
// the defaults.
type CostsConfig struct {
	ClockGHz     float64 `json:"clockGHz"`
	ExecCyc      uint64  `json:"execCyc"`
	L1HitCyc     uint64  `json:"l1HitCyc"`
	L2HitCyc     uint64  `json:"l2HitCyc"`
	MemCyc       uint64  `json:"memCyc"`
	StreamCyc    uint64  `json:"streamCyc"`
	TLBL2Cyc     uint64  `json:"tlbL2Cyc"`
	WalkRefCyc   uint64  `json:"walkRefCyc"`
	C2CCyc       uint64  `json:"c2cCyc"`
	FlushCyc     uint64  `json:"flushCyc"`
	FetchCyc     uint64  `json:"fetchCyc"`
	MsgCyc       uint64  `json:"msgCyc"`
	ForkCyc      uint64  `json:"forkCyc"`
	AtomicCyc    uint64  `json:"atomicCyc"`
	SoftFaultCyc uint64  `json:"softFaultCyc"`
}

func (c TLBEntryConfig) toConfig() tlb.Config {
	return tlb.Config{Entries: c.Entries, Ways: c.Ways}
}

func (c TLBSpecConfig) toSpec(name string) tlb.Spec {
	return tlb.Spec{
		Name: name,
		L1:   tlb.LevelSpec{E4K: c.L1.E4K.toConfig(), E2M: c.L1.E2M.toConfig()},
		L2:   tlb.LevelSpec{E4K: c.L2.E4K.toConfig(), E2M: c.L2.E2M.toConfig()},
	}
}

// Model materialises the configuration, validating topology and applying
// cost defaults.
func (mc ModelConfig) Model() (Model, error) {
	if mc.Name == "" {
		return Model{}, fmt.Errorf("machine: config needs a name")
	}
	if mc.Chips < 1 || mc.CoresPerChip < 1 || mc.ThreadsPerCore < 1 {
		return Model{}, fmt.Errorf("machine: %s: topology must be at least 1x1x1", mc.Name)
	}
	var smt SMTPolicy
	switch mc.SMT {
	case "", "none":
		smt = SMTNone
	case "flush":
		smt = SMTFlushOnSwitch
	case "interleave":
		smt = SMTInterleave
	default:
		return Model{}, fmt.Errorf("machine: %s: unknown smt policy %q", mc.Name, mc.SMT)
	}
	if mc.ThreadsPerCore > 1 && smt == SMTNone {
		return Model{}, fmt.Errorf("machine: %s: %d threads/core needs an smt policy", mc.Name, mc.ThreadsPerCore)
	}
	if mc.L1D.SizeKB <= 0 || mc.L2.SizeKB <= 0 {
		return Model{}, fmt.Errorf("machine: %s: caches need positive sizes", mc.Name)
	}
	if mc.DTLB.L1.E4K.Entries == 0 {
		return Model{}, fmt.Errorf("machine: %s: the L1 DTLB needs 4KB entries", mc.Name)
	}

	costs := DefaultCosts()
	if cc := mc.Costs; cc != nil {
		apply := func(dst *uint64, v uint64) {
			if v != 0 {
				*dst = v
			}
		}
		if cc.ClockGHz != 0 {
			costs.ClockGHz = cc.ClockGHz
		}
		apply(&costs.ExecCyc, cc.ExecCyc)
		apply(&costs.L1HitCyc, cc.L1HitCyc)
		apply(&costs.L2HitCyc, cc.L2HitCyc)
		apply(&costs.MemCyc, cc.MemCyc)
		apply(&costs.StreamCyc, cc.StreamCyc)
		apply(&costs.TLBL2Cyc, cc.TLBL2Cyc)
		apply(&costs.WalkRefCyc, cc.WalkRefCyc)
		apply(&costs.C2CCyc, cc.C2CCyc)
		apply(&costs.FlushCyc, cc.FlushCyc)
		apply(&costs.FetchCyc, cc.FetchCyc)
		apply(&costs.MsgCyc, cc.MsgCyc)
		apply(&costs.ForkCyc, cc.ForkCyc)
		apply(&costs.AtomicCyc, cc.AtomicCyc)
		apply(&costs.SoftFaultCyc, cc.SoftFaultCyc)
	}

	return Model{
		Name:           mc.Name,
		Chips:          mc.Chips,
		CoresPerChip:   mc.CoresPerChip,
		ThreadsPerCore: mc.ThreadsPerCore,
		ITLB:           mc.ITLB.toSpec(mc.Name + "-itlb"),
		DTLB:           mc.DTLB.toSpec(mc.Name + "-dtlb"),
		L1D:            cache.Config{SizeBytes: mc.L1D.SizeKB * units.KB, Ways: mc.L1D.Ways},
		L2:             cache.Config{SizeBytes: mc.L2.SizeKB * units.KB, Ways: mc.L2.Ways},
		L2PerChip:      mc.L2.PerChip,
		SMT:            smt,
		Coherent:       mc.Coherent,
		Costs:          costs,
	}, nil
}

// LoadModel reads a platform model from a JSON file.
func LoadModel(path string) (Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Model{}, fmt.Errorf("machine: %w", err)
	}
	var mc ModelConfig
	if err := json.Unmarshal(data, &mc); err != nil {
		return Model{}, fmt.Errorf("machine: parsing %s: %w", path, err)
	}
	return mc.Model()
}
