package main

import (
	"testing"

	"hugeomp/internal/core"
	"hugeomp/internal/machine"
	"hugeomp/internal/npb"
	"hugeomp/internal/omp"
)

func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig("XeonHT", 8, "2M", "W", 3, "central")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Model.Name != "XeonHT" || cfg.Threads != 8 {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.Policy != core.Policy2M || cfg.Class != npb.ClassW || cfg.Iterations != 3 {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.Barrier != omp.CentralBarrier || cfg.Sharing != machine.SharePartition {
		t.Errorf("cfg = %+v", cfg)
	}
}

func TestBuildConfigDefaultsAndAliases(t *testing.T) {
	cfg, err := buildConfig("Opteron270", 1, "transparent", "t", 0, "tree")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != core.PolicyTransparent || cfg.Class != npb.ClassT {
		t.Errorf("cfg = %+v", cfg)
	}
}

func TestBuildConfigRejectsBadInputs(t *testing.T) {
	cases := []struct {
		machine, pages, class, barrier string
	}{
		{"Pentium", "4K", "S", "tree"},
		{"XeonHT", "1G", "S", "tree"},
		{"XeonHT", "4K", "B", "tree"},
		{"XeonHT", "4K", "S", "butterfly"},
	}
	for _, c := range cases {
		if _, err := buildConfig(c.machine, 2, c.pages, c.class, 0, c.barrier); err == nil {
			t.Errorf("accepted %+v", c)
		}
	}
}
