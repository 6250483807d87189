// Command perfbench is the repository's end-to-end benchmark: it drives the
// simulator from outside — through npb's public calls and through the simd
// service handler — over a seeded op list, checks every answer against a
// digest gate, and prints one JSON result line. See README.md.
//
//	go run . -workload paper_sweep -seed 2007 -seconds 20 -trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"runtime"
	"strconv"
	"time"
)

// processStart stands in for process start: package initialisation runs
// before main, after only the Go runtime's own start-up.
var processStart = time.Now()

const (
	// defaultSeed is the seed the golden digests were recorded with.
	defaultSeed = 2007
	// heldOutSeed is never used while tuning a change; a claimed gain must
	// also hold on it.
	heldOutSeed = 4242
)

//go:embed golden.txt
var goldenTxt []byte

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the parsed command line.
type options struct {
	workload     string
	seed         uint64
	seconds      int
	trace        bool
	workdir      string
	updateGolden string
	dir          string // this run's scratch directory under workdir
}

// listSeconds is the duration the op list is sized for: a traced run
// performs two timed phases, each on a list half as long.
func listSeconds(o options) float64 {
	if o.trace {
		return float64(o.seconds) / 2
	}
	return float64(o.seconds)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "paper_sweep, serve_explore or serve_replay")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "op-list seed")
	fs.IntVar(&o.seconds, "seconds", 30, "sizes the op list to take about this long on the reference host")
	fs.IntVar(&trace, "trace", 0, "1 = layer-traced run printing per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "scratch directory for cache directories")
	fs.StringVar(&o.updateGolden, "update-golden", "", "verify every answer against cold runs and merge its digests into this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}

	nproc := runtime.NumCPU()
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		if n, err := strconv.Atoi(env); err != nil || n > nproc {
			return fmt.Errorf("GOMAXPROCS=%s exceeds nproc=%d", env, nproc)
		}
	}
	runtime.GOMAXPROCS(nproc)

	golden := map[string]string{}
	if o.updateGolden == "" {
		var err error
		if golden, err = parseGolden(goldenTxt); err != nil {
			return err
		}
	}

	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o.dir = dir

	var w *workload
	switch o.workload {
	case "paper_sweep":
		w, err = newSweep(o)
	case "serve_explore":
		w, err = newExplore(o)
	case "serve_replay":
		w, err = newReplay(o)
	default:
		return fmt.Errorf("unknown -workload %q (paper_sweep, serve_explore, serve_replay)", o.workload)
	}
	if err != nil {
		return err
	}
	if w.clients > nproc {
		return fmt.Errorf("%s runs %d clients, more than nproc=%d", o.workload, w.clients, nproc)
	}
	printInfo("host", map[string]any{
		"nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"cpu": cpuModel(), "clients": w.clients,
	})
	g := newGate(golden)
	res, err := w.measure(o, g)
	if err != nil {
		return err
	}
	if o.updateGolden != "" {
		if !res.Correct {
			return fmt.Errorf("not updating %s: %d of %d ops failed against cold runs", o.updateGolden, res.Failed, res.Attempted)
		}
		if err := mergeGolden(o.updateGolden, g.observed); err != nil {
			return err
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// printInfo writes one labelled JSON line ahead of the result line: the
// run's fingerprint and what it measured.
func printInfo(label string, v any) {
	b, _ := json.Marshal(v) // maps of strings and numbers always encode
	fmt.Printf("# %s %s\n", label, b)
}
