// Command mcs-vet is the repository's custom static-analysis suite,
// enforcing the correctness invariants the analysis engine's guarantees
// rest on, with modular facts carrying interprocedural results (arena
// borrows, detached contexts, lock-order edges) across package
// boundaries.
//
// It analyzes one module: it discovers every package under the root
// (skipping nested modules, testdata and vendor trees, as `go vet ./...`
// does), orders them by dependency, fans independent packages out in
// parallel, and replays unchanged packages from an on-disk fact cache.
//
//	go build -o "$(go env GOPATH)/bin/mcs-vet" ./cmd/mcs-vet
//	mcs-vet [flags] [module-root]
//
// Flags: -workers N, -json, -sarif FILE, -github, -ignores (audit every
// //lint:ignore directive and fail on missing justifications or stale
// suppressions), -cache DIR, -nocache. The exit status is 0 when clean,
// 2 when diagnostics were reported, and 1 on an error or a failed audit.
//
// scripts/verify.sh runs it, then the -ignores audit, on every
// verification pass. See docs/STATIC_ANALYSIS.md for the analyzers,
// their fact types, the invariants they protect, and the //lint:ignore
// escape hatch.
package main

import (
	"flag"
	"fmt"
	"os"

	"mcspeedup/internal/lint"
	"mcspeedup/internal/lint/suite"
)

const progname = "mcs-vet"

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: %s [flags] [module-root]\n", progname)
		flag.PrintDefaults()
	}
	jsonOut := flag.Bool("json", false, "emit the report as JSON on stdout")
	sarifOut := flag.String("sarif", "", "write a SARIF 2.1.0 log to this file ('-' for stdout)")
	githubOut := flag.Bool("github", false, "emit GitHub Actions ::error annotations on stdout")
	ignoresAudit := flag.Bool("ignores", false, "audit //lint:ignore directives instead of reporting diagnostics")
	workers := flag.Int("workers", 0, "parallel analysis workers (0 = one per CPU)")
	cacheDir := flag.String("cache", "", "fact-cache directory (default: user cache dir)")
	noCache := flag.Bool("nocache", false, "disable the fact cache")
	flag.Parse()

	root := "."
	switch flag.NArg() {
	case 0:
	case 1:
		root = flag.Arg(0)
	default:
		flag.Usage()
		os.Exit(1)
	}

	analyzers := suite.Analyzers
	res, err := lint.RunModule(root, analyzers, lint.ModuleOptions{
		Workers: *workers, CacheDir: *cacheDir, NoCache: *noCache,
	})
	if err != nil {
		fatal(err)
	}
	if *ignoresAudit {
		if !res.WriteIgnores(os.Stdout) {
			os.Exit(1)
		}
		return
	}
	if *sarifOut != "" {
		if err := writeSARIF(res, *sarifOut, analyzers); err != nil {
			fatal(err)
		}
	}
	switch {
	case *jsonOut:
		if err := res.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	case *githubOut:
		res.WriteGitHub(os.Stdout)
	default:
		for _, d := range res.Diagnostics {
			fmt.Fprintln(os.Stderr, d)
		}
	}
	if len(res.Diagnostics) > 0 {
		os.Exit(2)
	}
}

// writeSARIF writes the SARIF log to path, or to stdout for "-".
func writeSARIF(res *lint.ModuleResult, path string, analyzers []*lint.Analyzer) error {
	if path == "-" {
		return res.WriteSARIF(os.Stdout, analyzers)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = res.WriteSARIF(f, analyzers)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
	os.Exit(1)
}
