// Command sweep performs a sensitivity analysis of the reproduction's
// conclusions against one cost-model parameter: it varies the parameter
// across a range and reports how the large-page gain of a benchmark responds.
// This answers "does the headline result depend on a lucky constant?" — the
// CG gain should vary smoothly with the page-walk cost and vanish as the
// walk becomes free.
//
// Usage:
//
//	sweep -param walkRefCyc -values 25,50,100,150,200 -app CG -class W
//
// With -cache-dir, cell results are shared through the same crash-safe
// on-disk store the simd service uses: repeated sweeps (and concurrent simd
// or chaos -serve processes on the same directory) answer previously
// simulated cells from disk instead of recomputing them.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"hugeomp/internal/core"
	"hugeomp/internal/machine"
	"hugeomp/internal/memo"
	"hugeomp/internal/memo/diskcache"
	"hugeomp/internal/npb"
	"hugeomp/internal/par"
	"hugeomp/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	var (
		param    = flag.String("param", "walkRefCyc", "cost parameter: walkRefCyc, memCyc, streamCyc, flushCyc or msgCyc")
		values   = flag.String("values", "25,50,100,150,200", "comma-separated parameter values")
		app      = flag.String("app", "CG", "benchmark")
		class    = flag.String("class", "W", "problem class")
		model    = flag.String("machine", "Opteron270", "platform")
		threads  = flag.Int("threads", 4, "thread count")
		cacheDir = flag.String("cache-dir", "", "shared on-disk result cache directory (empty = memory only)")
	)
	flag.Parse()

	cl, err := npb.ParseClass(*class)
	if err != nil {
		log.Fatal(err)
	}
	base, ok := machine.ModelByName(*model)
	if !ok {
		log.Fatalf("unknown machine %q", *model)
	}

	var vals []uint64
	for _, tok := range strings.Split(*values, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 64)
		if err != nil {
			log.Fatalf("bad value %q: %v", tok, err)
		}
		vals = append(vals, v)
	}

	// The cost parameter only matters at run time, so all cells of one policy
	// share a single warmed snapshot: the system and kernel are constructed
	// once per policy, then every cell forks the snapshot and applies its
	// swept Model at fork time. Identical (config, seed) grid points — e.g.
	// repeated values in -values — dedupe through the result memo cache and
	// simulate exactly once.
	policies := []core.PagePolicy{core.Policy4K, core.Policy2M}
	warms := make(map[core.PagePolicy]*npb.Warm, len(policies))
	for _, p := range policies {
		w, err := npb.NewWarm(*app, npb.RunConfig{
			Model: base, Threads: *threads, Policy: p, Class: cl,
		})
		if err != nil {
			log.Fatal(err)
		}
		warms[p] = w
	}
	cache := memo.New()
	var disk *diskcache.Store
	if *cacheDir != "" {
		disk, err = diskcache.Open(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		cache.SetBacking(disk)
	}

	// Every cell forks an independent system, so the sweep fans out over the
	// bounded worker pool; results come back in cell order, so the printed
	// table is deterministic.
	secs, err := par.Map(len(vals)*len(policies), func(i int) (float64, error) {
		m := base
		if err := setCost(&m.Costs, *param, vals[i/len(policies)]); err != nil {
			return 0, err
		}
		cfg := npb.RunConfig{
			Model: m, Threads: *threads, Policy: policies[i%len(policies)], Class: cl,
		}
		// The config is the seed: the simulation is bit-deterministic, so
		// the canonical hash of the run config keys the result completely —
		// npb.RunKey, the same address every other driver uses for this run.
		// The kernel is keyed by its own name, so -app cg and -app CG share
		// one key, as simd's "cg" and "CG" requests do.
		var res npb.Result
		w := warms[cfg.Policy]
		if _, err := cache.GetOrCompute(npb.RunKey(w.Kernel(), cfg), func() (any, error) {
			return w.Run(cfg)
		}, &res); err != nil {
			return 0, err
		}
		return res.Seconds, nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("sensitivity of %s's 2MB-page gain to %s (%s, %d threads, class %s)\n\n",
		*app, *param, base.Name, *threads, cl)
	fmt.Printf("%12s%12s%12s%12s\n", *param, "4KB (s)", "2MB (s)", "gain")
	for i, v := range vals {
		s4, s2 := secs[i*2], secs[i*2+1]
		fmt.Printf("%12d%11.4fs%11.4fs%11.1f%%\n",
			v, s4, s2, stats.ImprovementPct(s4, s2))
	}
	hits, misses := cache.Stats()
	fmt.Printf("\nmemo: %d cells, %d memo misses, %d deduped (hit)\n",
		len(vals)*len(policies), misses, hits)
	if disk != nil {
		// A memo miss that hit disk was computed by an earlier process (or an
		// earlier identical sweep); disk misses were simulated here and
		// published for the next one.
		ds := disk.Stats()
		fmt.Printf("disk:  %s: %d cross-process hits, %d simulated+published, %d corrupt entries skipped\n",
			*cacheDir, ds.Hits, ds.Misses, ds.CorruptSkips)
	}
}

func setCost(c *machine.Costs, name string, v uint64) error {
	switch name {
	case "walkRefCyc":
		c.WalkRefCyc = v
	case "memCyc":
		c.MemCyc = v
	case "streamCyc":
		c.StreamCyc = v
	case "flushCyc":
		c.FlushCyc = v
	case "msgCyc":
		c.MsgCyc = v
	default:
		return fmt.Errorf("unknown parameter %q", name)
	}
	return nil
}
