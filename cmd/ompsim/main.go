// Command ompsim runs one NAS benchmark on the simulated large-page OpenMP
// system and prints time, TLB and cache statistics.
//
// Usage:
//
//	ompsim -app CG -class W -machine Opteron270 -threads 4 -pages 2M
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"hugeomp/internal/core"
	"hugeomp/internal/machine"
	"hugeomp/internal/npb"
	"hugeomp/internal/omp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ompsim: ")

	var (
		app     = flag.String("app", "CG", "benchmark: BT, CG, FT, SP or MG")
		class   = flag.String("class", "S", "problem class: T, S, W or A")
		model   = flag.String("machine", "Opteron270", "platform: Opteron270, XeonHT or NiagaraT1")
		mfile   = flag.String("machine-file", "", "JSON platform definition (overrides -machine)")
		threads = flag.Int("threads", 4, "OpenMP thread count")
		pages   = flag.String("pages", "4K", "page policy: 4K, 2M, mixed or transparent")
		iters   = flag.Int("iters", 0, "timesteps (0 = class default)")
		barrier = flag.String("barrier", "tree", "barrier algorithm: tree or central")
		verbose = flag.Bool("v", false, "print the full OProfile-style counter report")
		asJSON  = flag.Bool("json", false, "emit the result as JSON (for scripting)")
	)
	flag.Parse()

	cfg, err := buildConfig(*model, *threads, *pages, *class, *iters, *barrier)
	if err != nil {
		log.Fatal(err)
	}
	if *mfile != "" {
		m, err := machine.LoadModel(*mfile)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Model = m
	}
	k, err := npb.New(*app)
	if err != nil {
		log.Fatal(err)
	}
	res, err := npb.Run(k, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("%s class %s on %s, %d threads, %v pages\n",
		res.Kernel, res.Class, res.Model, res.Threads, res.Policy)
	fmt.Printf("  time        %10.4f s   (%d cycles)\n", res.Seconds, res.Cycles)
	fmt.Printf("  footprint   data %.1f MB, instr %.2f MB\n", res.DataMB, res.InstrMB)
	c := res.Counters
	fmt.Printf("  accesses    %12d\n", c.Accesses())
	fmt.Printf("  DTLB walks  %12d   (4K %d, 2M %d)\n", c.DTLBWalks(), c.DTLBWalks4K, c.DTLBWalks2M)
	fmt.Printf("  ITLB misses %12d\n", c.ITLBL1Miss)
	fmt.Printf("  L2 misses   %12d\n", c.L2Misses)
	fmt.Printf("  SMT flushes %12d\n", c.SMTSwitches)
	fmt.Printf("  walk cyc    %12d   (%.1f%% of busy)\n", c.WalkCyc, pct(c.WalkCyc, c.Busy))
	fmt.Printf("  mem cyc     %12d   (%.1f%% of busy)\n", c.MemCyc, pct(c.MemCyc, c.Busy))
	if *verbose {
		fmt.Println()
		fmt.Print(c.Report(res.Kernel, res.Seconds))
		if len(res.Regions) > 0 {
			fmt.Println("\nper-region profile (OProfile-style, by wall cycles):")
			fmt.Printf("  %-14s%10s%14s%9s%14s%12s\n",
				"region", "entries", "wall cyc", "wall %", "DTLB walks", "L2 misses")
			for _, p := range res.Regions {
				fmt.Printf("  %-14s%10d%14d%8.1f%%%14d%12d\n",
					p.Name, p.Entries, p.WallCycles,
					100*float64(p.WallCycles)/float64(res.Cycles),
					p.Counters.DTLBWalks(), p.Counters.L2Misses)
			}
		}
	}
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func buildConfig(model string, threads int, pages, class string, iters int,
	barrier string) (npb.RunConfig, error) {
	m, ok := machine.ModelByName(model)
	if !ok {
		return npb.RunConfig{}, fmt.Errorf("unknown machine %q", model)
	}
	var policy core.PagePolicy
	switch pages {
	case "4K", "4k":
		policy = core.Policy4K
	case "2M", "2m":
		policy = core.Policy2M
	case "mixed":
		policy = core.PolicyMixed
	case "transparent":
		policy = core.PolicyTransparent
	default:
		return npb.RunConfig{}, fmt.Errorf("unknown page policy %q", pages)
	}
	cl, err := npb.ParseClass(class)
	if err != nil {
		return npb.RunConfig{}, err
	}
	var alg omp.BarrierAlgo
	switch barrier {
	case "tree":
		alg = omp.TreeBarrier
	case "central":
		alg = omp.CentralBarrier
	default:
		return npb.RunConfig{}, fmt.Errorf("unknown barrier %q", barrier)
	}
	if threads < 1 {
		fmt.Fprintln(os.Stderr, "ompsim: threads must be >= 1")
		os.Exit(2)
	}
	return npb.RunConfig{
		Model:      m,
		Threads:    threads,
		Policy:     policy,
		Class:      cl,
		Iterations: iters,
		Barrier:    alg,
	}, nil
}
