package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// -compare A.json B.json: one row per (workload, end-to-end metric), B
// judged against A with the bounds fixed in spec.go. This is the tool for
// "two sets of runs of the same commit agree" and for every later
// before/after.

// resultFile is what -out writes: every run appended in order.
type resultFile struct {
	Host hostInfo     `json:"host"`
	Runs []*runResult `json:"runs"`
}

type hostInfo struct {
	OS     string `json:"os"`
	Arch   string `json:"arch"`
	CPUs   int    `json:"cpus"`
	GoVers string `json:"go"`
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendResults adds runs to the file at path, creating it if need be.
func appendResults(path string, host hostInfo, runs []*runResult) error {
	rf, err := readResults(path)
	if os.IsNotExist(err) {
		rf, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	rf.Host = host
	rf.Runs = append(rf.Runs, runs...)
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (its default, exclusive method), which
// is what the benchmark contract measures spread with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

type verdict string

const (
	vBetter     verdict = "better"
	vWorse      verdict = "worse"
	vWithin     verdict = "within-bound"
	vUnresolved verdict = "unresolved"
)

// judge compares B's runs of one metric against A's. A median worse by more
// than the bound is a regression whatever the noise; otherwise a spread
// wider than the bound on either side leaves the pair unresolved rather
// than "unchanged". fail_ratio (bound 0) may not rise at all.
func judge(spec metricSpec, a, b []float64) (v verdict, medA, medB, change, widest float64) {
	_, medA, _ = quartiles(a)
	_, medB, _ = quartiles(b)
	widest = max(spread(a), spread(b))
	worse := medB - medA // positive = worse, for "lower is better"
	if spec.Better == "higher" {
		worse = -worse
	}
	if medA != 0 {
		change = worse / medA
	} else if worse != 0 {
		change = worse // no base to take a share of: any rise from 0 counts whole
	}
	switch {
	case change > spec.Bound:
		return vWorse, medA, medB, change, widest
	case widest > spec.Bound && spec.Bound > 0:
		return vUnresolved, medA, medB, change, widest
	case change < -spec.Bound && spec.Bound > 0:
		return vBetter, medA, medB, change, widest
	}
	return vWithin, medA, medB, change, widest
}

// valuesOf gathers metric's values per workload from the untraced runs
// (end-to-end metrics are measured with tracing off).
func valuesOf(rf *resultFile, metric string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range rf.Runs {
		if r.Traced {
			continue
		}
		if v, ok := r.EndToEnd[metric]; ok {
			out[r.Workload] = append(out[r.Workload], v)
		}
	}
	return out
}

// compareResults prints the table and returns how many rows are worse.
func compareResults(w io.Writer, a, b *resultFile) int {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tunit\tworse by\tbound\tspread\truns\tverdict")
	nWorse := 0
	for _, wl := range workloads {
		for _, spec := range endToEnd {
			va, vb := valuesOf(a, spec.Name)[wl.Name], valuesOf(b, spec.Name)[wl.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, medA, medB, change, widest := judge(spec, va, vb)
			if v == vWorse {
				nWorse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%+.1f%%\t%.0f%%\t%.1f%%\t%d/%d\t%s\n",
				wl.Name, spec.Name, medA, medB, spec.Unit, 100*change, 100*spec.Bound, 100*widest, len(va), len(vb), v)
		}
	}
	tw.Flush()
	return nWorse
}
