// Command additivity-lint runs the project-specific static analysis
// suite over Go packages in this module. The passes enforce the
// repository's reproducibility and concurrency contracts mechanically:
//
//	determinism — no ambient state (time.Now, global math/rand, pids,
//	              env) or map-iteration-ordered output in result paths
//	floatcmp    — float comparisons must name their contract
//	              (tolerance or bit identity), never bare ==/!=
//	fingerprint — every field of a struct feeding a cache key must be
//	              written into the key
//	serving     — in serving code, each Lock is a top-level statement
//	              followed by its deferred Unlock, with nothing after
//	              it that blocks; context.Background() and TODO() are
//	              banned outside main, tests and documented detached
//	              workers
//
// Copies of lock-bearing values are left to go vet's copylocks check,
// which the smoke test runs over the module.
//
// Usage:
//
//	additivity-lint [-checks determinism,floatcmp] [-list] [-report-suppressions] [patterns]
//
// Patterns default to ./... and are resolved by `go list` from the
// current directory, which must sit inside the module. Findings print
// one per line as file:line:col: message (check). A finding is
// suppressed by `//lint:ignore <check> <reason>` on, or on the line
// above, the flagged line; the reason is mandatory and malformed
// directives are themselves findings.
//
// -report-suppressions inventories every //lint:ignore directive in
// the matched packages (file:line, checks, reason) instead of running
// the passes, and fails when a directive is malformed or names a check
// that is not registered — so a typo in a suppression cannot silently
// ignore nothing.
//
// Exit status: 0 — clean; 1 — findings; 2 — usage, load or type errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"additivity/internal/analysis"
	"additivity/internal/analysis/passes/determinism"
	"additivity/internal/analysis/passes/fingerprint"
	"additivity/internal/analysis/passes/floatcmp"
	"additivity/internal/analysis/passes/serving"
)

// all lists every registered pass.
var all = []*analysis.Analyzer{
	determinism.Analyzer,
	fingerprint.Analyzer,
	floatcmp.Analyzer,
	serving.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("additivity-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checks := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list registered checks and exit")
	reportSups := fs.Bool("report-suppressions", false,
		"inventory every //lint:ignore directive instead of running checks; fail on malformed directives or unknown check names")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectChecks(*checks)
	if err != nil {
		fmt.Fprintln(stderr, "additivity-lint:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "additivity-lint:", err)
		return 2
	}

	if *reportSups {
		return reportSuppressions(stdout, stderr, dir, patterns)
	}

	res, err := analysis.Run(dir, analyzers, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "additivity-lint:", err)
		return 2
	}
	if len(res.TypeErrors) > 0 {
		for _, terr := range res.TypeErrors {
			fmt.Fprintln(stderr, "additivity-lint: type error:", terr)
		}
		return 2
	}
	for _, d := range res.Diagnostics {
		fmt.Fprintln(stdout, d)
	}
	if len(res.Diagnostics) > 0 {
		return 1
	}
	return 0
}

// reportSuppressions prints the //lint:ignore inventory for the
// matched packages, one directive per line as file:line: checks:
// reason, followed by a count. Malformed directives and directives
// naming unregistered checks fail the run: a suppression that cannot
// match any diagnostic is a stale contract exception or a typo about
// to let one through.
func reportSuppressions(stdout, stderr *os.File, dir string, patterns []string) int {
	dirs, err := analysis.Directives(dir, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "additivity-lint:", err)
		return 2
	}
	known := map[string]bool{"all": true}
	for _, a := range all {
		known[a.Name] = true
	}
	bad := 0
	for _, d := range dirs {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(dir, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		if d.Malformed {
			fmt.Fprintf(stderr, "additivity-lint: %s:%d: malformed //lint:ignore: want //lint:ignore <check>[,<check>...] <reason>\n", file, d.Pos.Line)
			bad++
			continue
		}
		fmt.Fprintf(stdout, "%s:%d: %s: %s\n", file, d.Pos.Line, strings.Join(d.Checks, ","), d.Reason)
		for _, c := range d.Checks {
			if !known[c] {
				fmt.Fprintf(stderr, "additivity-lint: %s:%d: suppression names unknown check %q\n", file, d.Pos.Line, c)
				bad++
			}
		}
	}
	fmt.Fprintf(stdout, "%d suppression(s)\n", len(dirs))
	if bad > 0 {
		return 1
	}
	return 0
}

// selectChecks resolves the -checks flag to a subset of registered
// analyzers (all of them for an empty flag).
func selectChecks(csv string) ([]*analysis.Analyzer, error) {
	if csv == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			known := make([]string, 0, len(byName))
			for n := range byName {
				known = append(known, n)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown check %q (known: %s)", name, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-checks selected no checks")
	}
	return out, nil
}
