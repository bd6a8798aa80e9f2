// Command paperbench regenerates every table and figure of the paper's
// evaluation section. Run it with no arguments for the full grid (minutes),
// with -quick for a seconds-long smoke pass, or with -exp to regenerate a
// single artifact:
//
//	paperbench                 # everything, paper-scale grid
//	paperbench -quick          # tiny models/datasets, same code paths
//	paperbench -exp fig2       # just the scalability figure
//	paperbench -list           # show available experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"disttrain/internal/api"
	"disttrain/internal/report"
	"disttrain/internal/train"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment ID to run (default: all); see -list")
		quick    = flag.Bool("quick", false, "small fast configuration instead of the paper grid")
		seed     = flag.Uint64("seed", 1, "master random seed")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		verbose  = flag.Bool("v", false, "log per-run progress to stderr")
		pool     = flag.Int("pool", 0, "compute pool goroutines for real gradient math (0 = one per CPU, <0 = serial inline)")
		htmlPath = flag.String("html", "", "also write a self-contained HTML report to this path")
	)
	flag.Parse()

	if *list {
		for _, e := range train.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := train.Options{Quick: *quick, Seed: *seed, Pool: api.PoolSize(*pool)}
	if *verbose {
		opts.Log = os.Stderr
	}

	var exps []train.Experiment
	if *exp == "" {
		exps = train.Experiments()
	} else {
		e, err := train.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		exps = []train.Experiment{e}
	}

	var htmlBlocks []string
	for _, e := range exps {
		start := time.Now()
		fmt.Printf("### %s — %s\n\n", e.ID, e.Title)
		htmlBlocks = append(htmlBlocks, "### "+e.ID+" — "+e.Title)
		blocks, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		for _, b := range blocks {
			fmt.Println(b)
		}
		htmlBlocks = append(htmlBlocks, blocks...)
		fmt.Printf("(%s completed in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
	if *htmlPath != "" {
		page := report.HTMLPage("disttrain paperbench report", htmlBlocks)
		if err := os.WriteFile(*htmlPath, []byte(page), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *htmlPath, err)
			os.Exit(1)
		}
		fmt.Printf("HTML report written to %s\n", *htmlPath)
	}
}
