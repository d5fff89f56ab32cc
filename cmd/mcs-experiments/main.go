// Command mcs-experiments regenerates the tables and figures of the
// paper's evaluation section and prints them as fixed-width text (see
// EXPERIMENTS.md for the recorded outputs).
//
// Usage:
//
//	mcs-experiments [flags]
//
//	-run string        comma-separated subset of
//	                   table1,fig1,fig2,fig3,fig4,fig5,fig6,fig7,ablation,service
//	                   (default "all")
//	-json              emit results as JSON instead of rendered text
//	-sets int          task sets per data point for fig6/fig7 (default 100/20)
//	-grid int          grid resolution for fig5/fig7 (default 9)
//	-seed int          RNG seed (default 2015)
//	-workers int       parallel sweep workers (0 = all cores); rendered
//	                   output is byte-identical for every worker count
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"strings"

	"mcspeedup"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mcs-experiments: ")
	var (
		run     = flag.String("run", "all", "experiments to run (comma-separated)")
		sets    = flag.Int("sets", 0, "task sets per data point (fig6/fig7/ablation/service)")
		grid    = flag.Int("grid", 9, "grid resolution (fig5/fig7)")
		seed    = flag.Int64("seed", 2015, "random seed")
		asJSON  = flag.Bool("json", false, "emit results as JSON")
		workers = flag.Int("workers", 0, "parallel sweep workers (0 = all cores)")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		want[strings.TrimSpace(strings.ToLower(name))] = true
	}
	all := want["all"]
	selected := func(name string) bool { return all || want[name] }

	type renderer interface{ Render() string }
	runExperiment := func(key, title string, driver func() (renderer, error)) {
		if !selected(key) {
			return
		}
		r, err := driver()
		if err != nil {
			log.Fatalf("%s: %v", title, err)
		}
		if *asJSON {
			data, err := json.MarshalIndent(map[string]any{"experiment": title, "result": r}, "", "  ")
			if err != nil {
				log.Fatalf("%s: %v", title, err)
			}
			fmt.Println(string(data))
			return
		}
		fmt.Printf("==== %s ====\n%s\n", title, r.Render())
	}

	runExperiment("table1", "Table I / Examples 1-2", func() (renderer, error) {
		r, err := mcspeedup.ExperimentTable1()
		return r, err
	})
	runExperiment("fig1", "Figure 1", func() (renderer, error) {
		r, err := mcspeedup.ExperimentFig1(30)
		return r, err
	})
	runExperiment("fig2", "Figure 2", func() (renderer, error) {
		return mcspeedup.ExperimentFig2(), nil
	})
	runExperiment("fig3", "Figure 3", func() (renderer, error) {
		r, err := mcspeedup.ExperimentFig3(30, 40, *workers)
		return r, err
	})
	runExperiment("fig4", "Figure 4", func() (renderer, error) {
		r, err := mcspeedup.ExperimentFig4(17, 25, *workers)
		return r, err
	})
	runExperiment("fig5", "Figure 5", func() (renderer, error) {
		r, err := mcspeedup.ExperimentFig5(*grid, *workers)
		return r, err
	})
	runExperiment("fig6", "Figure 6", func() (renderer, error) {
		cfg := mcspeedup.Fig6Config{Seed: *seed, Workers: *workers}
		if *sets > 0 {
			cfg.SetsPerPoint = *sets
		}
		r, err := mcspeedup.ExperimentFig6(cfg)
		return r, err
	})
	runExperiment("fig7", "Figure 7", func() (renderer, error) {
		cfg := mcspeedup.Fig7Config{Seed: *seed, Workers: *workers}
		if *sets > 0 {
			cfg.SetsPerPoint = *sets
		}
		if *grid > 0 {
			for i := 0; i < *grid; i++ {
				cfg.Grid = append(cfg.Grid, 0.1+0.85*float64(i)/float64(*grid-1))
			}
		}
		r, err := mcspeedup.ExperimentFig7(cfg)
		return r, err
	})
	runExperiment("service", "LO-service quality", func() (renderer, error) {
		cfg := mcspeedup.ServiceQualityConfig{Seed: *seed, Workers: *workers}
		if *sets > 0 {
			cfg.Sets = *sets
		}
		r, err := mcspeedup.ExperimentServiceQuality(cfg)
		return r, err
	})
	runExperiment("ablation", "Policy ablation", func() (renderer, error) {
		cfg := mcspeedup.AblationConfig{Seed: *seed, Workers: *workers}
		if *sets > 0 {
			cfg.SetsPerPoint = *sets
		}
		r, err := mcspeedup.ExperimentAblation(cfg)
		return r, err
	})
}
