// Command experiments regenerates every table and figure of the paper's
// evaluation section at the requested class (the full reproduction uses
// class A; EXPERIMENTS.md records its output).
//
// Usage:
//
//	experiments -class A            # everything (minutes)
//	experiments -class W -only fig5 # one experiment
package main

import (
	"flag"
	"log"
	"os"

	"hugeomp/internal/bench"
	"hugeomp/internal/npb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	class := flag.String("class", "W", "problem class: T, S, W or A")
	only := flag.String("only", "", "run one experiment: table1, table2, fig3, fig4, fig5 or extensions")
	plot := flag.Bool("plot", false, "render fig4/fig5 as ASCII bar charts instead of tables")
	flag.Parse()

	cl, err := npb.ParseClass(*class)
	if err != nil {
		log.Fatal(err)
	}
	w := os.Stdout
	switch *only {
	case "":
		err = bench.All(w, cl)
	case "table1":
		bench.Table1(w)
	case "table2":
		err = bench.Table2(w, cl)
	case "fig3":
		err = bench.Fig3(w, cl)
	case "fig4":
		if *plot {
			err = bench.Fig4Plot(w, cl, nil)
		} else {
			err = bench.Fig4(w, cl, nil)
		}
	case "fig5":
		if *plot {
			err = bench.Fig5Plot(w, cl)
		} else {
			err = bench.Fig5(w, cl)
		}
	case "extensions":
		err = bench.Extensions(w, cl)
	default:
		log.Fatalf("unknown experiment %q", *only)
	}
	if err != nil {
		log.Fatal(err)
	}
}
