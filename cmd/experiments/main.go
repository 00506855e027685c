// Command experiments regenerates the tables and figures of the
// SLiMFast paper's evaluation (Section 5 plus appendices) on the
// calibrated dataset simulators.
//
// Usage:
//
//	experiments -list
//	experiments -exp table2            # one experiment
//	experiments -exp all               # the whole suite
//	experiments -exp fig4a -quick      # smaller instances, fewer settings
//	experiments -exp table3 -seeds 5   # average over 5 splits
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"slimfast/internal/eval"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	expID := fs.String("exp", "all", "experiment id (see -list) or \"all\"")
	list := fs.Bool("list", false, "list experiments and exit")
	def := eval.DefaultConfig()
	quick := fs.Bool("quick", def.Quick, "quick mode: smaller instances, fewer settings")
	seeds := fs.Int("seeds", len(def.Seeds), "random splits to average per configuration")
	dataSeed := fs.Int64("dataseed", def.DataSeed, "dataset generation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range eval.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}

	cfg := eval.Config{Quick: *quick, DataSeed: *dataSeed}
	for i := 0; i < *seeds; i++ {
		cfg.Seeds = append(cfg.Seeds, int64(i+1))
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []int64{1}
	}

	var targets []eval.Experiment
	if *expID == "all" {
		targets = eval.All()
	} else {
		e, ok := eval.ByID(*expID)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *expID)
		}
		targets = []eval.Experiment{e}
	}
	for _, e := range targets {
		fmt.Printf("==== %s — %s ====\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(os.Stdout, cfg); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
	return nil
}
