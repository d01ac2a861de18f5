package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// document is the file -out writes and -compare reads.
type document struct {
	Schema    string            `json:"schema"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Env       envBlock          `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

const schema = "additivity-bench/v1"

func readDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, schema)
	}
	return &d, nil
}

type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares one end-to-end metric of two runs. A change counts when
// the medians differ by more than the allowance (bound × old median, or
// the metric's floor if larger). When either run's own spread — the
// distance between its quartiles — exceeds the allowance the result is
// unresolved, unless the new run's middle half lies wholly on the better
// side of the old one's. fail_ratio may not rise at all.
func judge(m metricDef, old, cur stat) verdict {
	if m.name == "fail_ratio" {
		switch {
		case cur.Value > old.Value || cur.Max > old.Max:
			return worse
		case cur.Value < old.Value:
			return better
		}
		return same
	}
	allow := max(m.bound*old.Value, m.floor)
	worsening := cur.Value - old.Value
	beatsAll := cur.Q3 < old.Q1
	if m.better == "higher" {
		worsening = -worsening
		beatsAll = cur.Q1 > old.Q3
	}
	if old.Q3-old.Q1 > allow || cur.Q3-cur.Q1 > allow {
		if beatsAll {
			return better
		}
		return unresolved
	}
	switch {
	case worsening > allow:
		return worse
	case -worsening > allow:
		return better
	}
	return same
}

// compare prints a verdict for every workload × end-to-end metric and the
// per-layer deltas, and reports whether any metric got worse.
func compare(old, cur *document, w io.Writer) bool {
	byName := map[string]*workloadResult{}
	for _, r := range old.Workloads {
		byName[r.Name] = r
	}
	anyWorse := false
	fmt.Fprintf(w, "%-13s %-16s %14s %14s %9s  %s\n", "workload", "metric", "old", "new", "change", "verdict")
	for _, r := range cur.Workloads {
		o := byName[r.Name]
		if o == nil {
			fmt.Fprintf(w, "%-13s missing from the old run\n", r.Name)
			continue
		}
		for _, m := range e2eMetrics {
			a, okA := o.E2E[m.name]
			b, okB := r.E2E[m.name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-13s %-16s missing\n", r.Name, m.name)
				continue
			}
			v := judge(m, a, b)
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(w, "%-13s %-16s %14.4f %14.4f %8.1f%%  %s\n", r.Name, m.name, a.Value, b.Value, change(a.Value, b.Value), v)
		}
	}
	fmt.Fprintf(w, "\nper-layer deltas (not gated):\n")
	for _, r := range cur.Workloads {
		o := byName[r.Name]
		if o == nil {
			continue
		}
		for _, m := range layerMetrics {
			a, okA := o.Layers[m.name]
			b, okB := r.Layers[m.name]
			if !okA || !okB {
				continue
			}
			fmt.Fprintf(w, "%-13s %-28s %14.4f %14.4f %8.1f%% %s\n", r.Name, m.name, a.Value, b.Value, change(a.Value, b.Value), m.unit)
		}
	}
	return anyWorse
}

func change(old, cur float64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (cur - old) / old
}
