// Command chaos is the fault-injection soak harness: it runs NAS kernels
// under many randomized-but-replayable fault plans and holds the simulator to
// the robustness contract — every injected-fault run completes, passes NPB
// verification with numerics identical to the fault-free baseline, keeps
// every structural invariant (internal/check), and replays the same seed to
// bit-identical counters. It finishes with a degradation report comparing a
// healthy 2 MB run against the forced 4 KB fallback (vm.nr_hugepages = 0).
//
// Usage:
//
//	chaos                    # 50 plans over CG, MG, SP at class T
//	chaos -plans 200 -v      # longer soak, per-plan lines
//	chaos -seed 7 -kernels CG
//	chaos -serve -plans 300  # soak the simd service over HTTP instead
//	chaos -serve -cache-dir /tmp/homc   # soak against a shared on-disk cache;
//	                                    # run twice to prove cross-process hits
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"hugeomp/internal/check"
	"hugeomp/internal/core"
	"hugeomp/internal/faultinject"
	"hugeomp/internal/machine"
	"hugeomp/internal/memo"
	"hugeomp/internal/npb"
	"hugeomp/internal/par"
	"hugeomp/internal/stats"
)

// mix is splitmix64: the plan-shape generator. Deterministic in the seed, so
// a plan index always rebuilds the identical campaign.
func mix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit draws a float in [0,1).
func unit(s *uint64) float64 { return float64(mix(s)>>11) / float64(1<<53) }

// campaign is one seeded fault scenario: which policy runs and which fault
// sites fire at which rates. Everything derives from the seed, so rebuilding
// a campaign for the same seed replays it exactly.
type campaign struct {
	seed      uint64
	policy    core.PagePolicy
	threads   int
	hugePages int
	desc      string
}

// plan rebuilds the campaign's fault plan (a fresh Plan each run: plans carry
// occurrence counters and must not be shared between runs).
func (c campaign) plan() *faultinject.Plan {
	s := c.seed
	p := faultinject.New(c.seed)
	mix(&s) // policy draw (must stay in lockstep with newCampaign)
	p.Enable(faultinject.SitePTMap, 0.25*unit(&s))
	if c.policy == core.PolicyTransparent {
		p.Enable(faultinject.SiteTHPAlloc, 0.6*unit(&s))
		p.Enable(faultinject.SiteTHPPressure, 0.02*unit(&s))
	} else {
		p.Enable(faultinject.SiteHugetlbTake, 0.3*unit(&s))
		if mix(&s)%4 == 0 {
			p.Enable(faultinject.SiteHugetlbReserve, 0.05+0.2*unit(&s))
		}
	}
	return p
}

// newCampaign derives campaign i from the base seed. Transparent-policy
// campaigns run single-threaded: the THP pressure site is occurrence-keyed,
// and a single faulting thread is what makes its draw order (and therefore
// the demotion count) replayable.
func newCampaign(baseSeed uint64, i, threads int) campaign {
	c := campaign{seed: baseSeed + uint64(i), threads: threads}
	s := c.seed
	switch mix(&s) % 3 {
	case 0:
		c.policy = core.Policy2M
	case 1:
		c.policy = core.PolicyMixed
	default:
		c.policy = core.PolicyTransparent
		c.threads = 1
	}
	unit(&s) // pt-map rate draw
	if c.policy == core.PolicyTransparent {
		unit(&s)
		unit(&s)
	} else {
		unit(&s)
		if mix(&s)%4 == 0 {
			unit(&s)
		}
		if mix(&s)%5 == 0 {
			c.hugePages = core.NoHugePages
		}
	}
	c.desc = fmt.Sprintf("seed=%#x policy=%v threads=%d", c.seed, c.policy, c.threads)
	if c.hugePages == core.NoHugePages {
		c.desc += " pool=empty"
	}
	return c
}

// outcome is one (campaign, kernel) soak cell.
type outcome struct {
	campaign campaign
	kernel   string
	res      npb.Result
	checksum float64
	injected uint64
	planDesc string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaos: ")
	plans := flag.Int("plans", 50, "number of seeded fault plans")
	kernels := flag.String("kernels", "CG,MG,SP", "comma-separated kernels to soak")
	classFlag := flag.String("class", "T", "problem class: T, S, W or A")
	threads := flag.Int("threads", 2, "threads for non-transparent campaigns")
	seed := flag.Uint64("seed", 0x5eed, "base seed; plan i uses seed+i")
	verbose := flag.Bool("v", false, "print one line per (plan, kernel) cell")
	serve := flag.Bool("serve", false, "soak the simd HTTP service instead of the in-process simulator; -plans becomes the op count")
	cacheDir := flag.String("cache-dir", "", "with -serve: shared on-disk result cache directory (as simd -cache-dir)")
	flag.Parse()

	if *serve {
		if err := serveSoak(*plans, *seed, *verbose, *cacheDir); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *cacheDir != "" {
		log.Fatal("-cache-dir requires -serve")
	}
	if err := faultSoak(os.Stdout, *plans, strings.Split(*kernels, ","), *classFlag, *threads, *seed, *verbose); err != nil {
		log.Fatal(err)
	}
	os.Exit(0)
}

// faultSoak is chaos's fault-plan campaign: plans seeded fault plans (plan i
// uses seed+i) over each of names at the given class, every run verified
// against the fault-free numerics, audited by internal/check and replayed
// to bit-identical counters, then a degradation report. It writes its
// report to w and returns the first violation.
func faultSoak(w io.Writer, plans int, names []string, className string, threads int, seed uint64, verbose bool) error {
	class, err := npb.ParseClass(className)
	if err != nil {
		return err
	}
	model := machine.Opteron270()

	// Fault-free baselines: the numerics every fault run must reproduce and
	// the cycle counts the degradation report compares against. Keyed by
	// thread count too — reduction combine order (CG, MG, FT) is part of the
	// numerics, and transparent-policy campaigns run single-threaded.
	//
	// The baselines don't cold-construct per config: one warmed snapshot per
	// kernel is forked for every thread count (threads are a fork-time
	// parameter), and each baseline's result + checksum is memoized under the
	// canonical hash of its config, so nothing downstream ever re-simulates a
	// fault-free reference.
	type baseline struct {
		Res npb.Result
		Sum float64
	}
	cache := memo.New()
	warm4K := make(map[string]*npb.Warm, len(names))
	for _, name := range names {
		wt, err := npb.NewWarm(name, npb.RunConfig{
			Model: model, Threads: threads, Policy: core.Policy4K, Class: class,
		})
		if err != nil {
			return fmt.Errorf("baseline template %s: %w", name, err)
		}
		warm4K[name] = wt
	}
	type baseKey struct {
		kernel  string
		threads int
	}
	baseSum := make(map[baseKey]float64)
	baseRes := make(map[baseKey]npb.Result)
	for _, name := range names {
		for _, th := range []int{1, threads} {
			key := baseKey{name, th}
			if _, ok := baseSum[key]; ok {
				continue
			}
			cfg := npb.RunConfig{
				Model: model, Threads: th, Policy: core.Policy4K, Class: class,
			}
			var b baseline
			if _, err := cache.GetOrCompute(memo.MustKey("baseline", name, cfg),
				func() (any, error) {
					res, sum, err := warm4K[name].RunChecksum(cfg)
					if err != nil {
						return nil, err
					}
					return baseline{Res: res, Sum: sum}, nil
				}, &b); err != nil {
				return fmt.Errorf("baseline %s: %w", name, err)
			}
			baseSum[key] = b.Sum
			baseRes[key] = b.Res
		}
	}

	// The soak: every (plan, kernel) cell runs twice — once to measure, once
	// to prove same-seed replay produces bit-identical counters.
	cells := make([]struct {
		c      campaign
		kernel string
	}, 0, plans*len(names))
	for i := 0; i < plans; i++ {
		c := newCampaign(seed, i, threads)
		for _, name := range names {
			cells = append(cells, struct {
				c      campaign
				kernel string
			}{c, name})
		}
	}
	outcomes, err := par.Map(len(cells), func(i int) (outcome, error) {
		cell := cells[i]
		run := func() (npb.Result, float64, *faultinject.Plan, error) {
			k, err := npb.New(cell.kernel)
			if err != nil {
				return npb.Result{}, 0, nil, err
			}
			plan := cell.c.plan()
			res, sys, _, err := npb.RunOn(k, npb.RunConfig{
				Model: model, Threads: cell.c.threads, Policy: cell.c.policy,
				Class: class, HugePages: cell.c.hugePages, Fault: plan,
			})
			if err != nil {
				return npb.Result{}, 0, nil, fmt.Errorf("%s under %s: %w", cell.kernel, cell.c.desc, err)
			}
			if err := check.All(sys.Machine); err != nil {
				return npb.Result{}, 0, nil, fmt.Errorf("invariants after %s under %s: %w", cell.kernel, cell.c.desc, err)
			}
			return res, npb.Checksum(k), plan, nil
		}
		res, sum, plan, err := run()
		if err != nil {
			return outcome{}, err
		}
		want := baseSum[baseKey{cell.kernel, cell.c.threads}]
		if sum != want {
			return outcome{}, fmt.Errorf("%s under %s: checksum %v != fault-free %v",
				cell.kernel, cell.c.desc, sum, want)
		}
		replay, replaySum, replayPlan, err := run()
		if err != nil {
			return outcome{}, fmt.Errorf("replay: %w", err)
		}
		if replaySum != sum || replay.Counters != res.Counters ||
			replay.OS != res.OS || replay.Degraded != res.Degraded ||
			replayPlan.TotalInjected() != plan.TotalInjected() {
			return outcome{}, fmt.Errorf("%s under %s: replay diverged (counters or OS events differ)",
				cell.kernel, cell.c.desc)
		}
		return outcome{
			campaign: cell.c, kernel: cell.kernel, res: res,
			checksum: sum, injected: plan.TotalInjected(), planDesc: plan.String(),
		}, nil
	})
	if err != nil {
		return err
	}

	var degradedRuns, faultedRuns int
	for _, o := range outcomes {
		if o.res.Degraded {
			degradedRuns++
		}
		if o.injected > 0 {
			faultedRuns++
		}
		if verbose {
			base := baseRes[baseKey{o.kernel, o.campaign.threads}]
			fmt.Fprintf(w, "  %-2s %-44s busy %s  os[%s]  %s\n",
				o.kernel, o.campaign.desc,
				stats.FormatFactor(stats.Factor(base.Counters.Busy, o.res.Counters.Busy)),
				o.res.OS, o.planDesc)
		}
	}

	fmt.Fprintf(w, "chaos: %d plans × %d kernels (class %s): all runs verified, invariants held, replays identical\n",
		plans, len(names), className)
	fmt.Fprintf(w, "chaos: %d/%d cells injected at least one fault; %d ran degraded (4 KB fallback)\n",
		faultedRuns, len(outcomes), degradedRuns)

	// Degradation report: healthy 2 MB backing vs. the forced 4 KB fallback.
	// The healthy rows fork a warmed 2 MB snapshot per kernel (and memoize);
	// the empty-pool rows must construct cold — the fallback they measure
	// happens during construction.
	fmt.Fprintln(w, "\ndegradation report (2MB pool vs vm.nr_hugepages=0, same binary, same numerics):")
	fmt.Fprintf(w, "  %-3s %14s %14s %10s %10s %10s\n", "app", "walks(2M)", "walks(0)", "walks", "busy", "fallback")
	for _, name := range names {
		w2M, err := npb.NewWarm(name, npb.RunConfig{
			Model: model, Threads: threads, Policy: core.Policy2M, Class: class,
		})
		if err != nil {
			return fmt.Errorf("degradation template %s: %w", name, err)
		}
		healthy, degraded := npb.Result{}, npb.Result{}
		for _, hp := range []int{0, core.NoHugePages} {
			cfg := npb.RunConfig{
				Model: model, Threads: threads, Policy: core.Policy2M,
				Class: class, HugePages: hp,
			}
			var b baseline
			if _, err := cache.GetOrCompute(memo.MustKey("degradation", name, cfg),
				func() (any, error) {
					if hp == 0 {
						res, sum, err := w2M.RunChecksum(cfg)
						if err != nil {
							return nil, err
						}
						return baseline{Res: res, Sum: sum}, nil
					}
					k, err := npb.New(name)
					if err != nil {
						return nil, err
					}
					res, err := npb.Run(k, cfg)
					if err != nil {
						return nil, err
					}
					return baseline{Res: res, Sum: npb.Checksum(k)}, nil
				}, &b); err != nil {
				return fmt.Errorf("degradation report %s: %w", name, err)
			}
			if b.Sum != baseSum[baseKey{name, threads}] {
				return fmt.Errorf("degradation report %s: numerics changed", name)
			}
			if hp == 0 {
				healthy = b.Res
			} else {
				degraded = b.Res
			}
		}
		if !degraded.Degraded || healthy.Degraded {
			return fmt.Errorf("degradation report %s: fallback flags wrong (healthy=%v degraded=%v)",
				name, healthy.Degraded, degraded.Degraded)
		}
		fmt.Fprintf(w, "  %-3s %14d %14d %10s %10s %10d\n", name,
			healthy.Counters.DTLBWalks(), degraded.Counters.DTLBWalks(),
			stats.FormatFactor(stats.Factor(healthy.Counters.DTLBWalks(), degraded.Counters.DTLBWalks())),
			stats.FormatFactor(stats.Factor(healthy.Counters.Busy, degraded.Counters.Busy)),
			degraded.OS.HugePageFallbacks)
	}
	hits, misses := cache.Stats()
	fmt.Fprintf(w, "\nmemo: %d reference simulations, %d reuses served from cache\n", misses, hits)
	return nil
}
