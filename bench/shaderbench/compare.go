package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"

	"shaderopt/internal/stats"
)

// minPairs is the fewest parent/change pairs a verdict rests on.
const minPairs = 10

// benchSpec is the part of BENCHMARK.json a comparison reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

func compareFiles(w io.Writer, specPath, parentPath, changePath string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	compare(w, spec, parent, change)
	return nil
}

// series returns, in record order, one workload's values of a metric.
func series(recs []runRecord, workload string, trace int, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// compare prints, for each workload in its own rows and each metric, both
// sides' median and quartiles, the share of index-matched pairs the change
// wins, and for end-to-end metrics a verdict against the metric's bound.
func compare(w io.Writer, spec *benchSpec, parent, change []runRecord) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tchange\tpairs\twins\tverdict")
	for _, wl := range workloads {
		for trace, metrics := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			for _, m := range metrics {
				p := series(parent, wl.name, trace, m.Name)
				c := series(change, wl.name, trace, m.Name)
				if len(p) == 0 || len(c) == 0 {
					continue
				}
				v := judge(p, c, m, trace == 0)
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%d\t%.0f%%\t%s\n", wl.name, m.Name,
					quartiles(p), quartiles(c), 100*v.change, v.pairs, 100*v.winFrac, v.verdict)
			}
		}
	}
	tw.Flush()
}

func quartiles(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", stats.Median(xs), stats.Quantile(xs, 0.25), stats.Quantile(xs, 0.75))
}

type judgement struct {
	change  float64 // relative change of the median, positive = higher
	pairs   int
	winFrac float64
	verdict string
}

// judge applies the comparison rules: a gain needs the change to win nine
// tenths of the pairs and the medians to differ by more than the parent's
// own quartile spread; a regression is a median worse by more than the
// bound; a parent spread wider than the bound leaves the metric
// unresolved unless every change run beats every parent run.
func judge(p, c []float64, m specMetric, bounded bool) judgement {
	pm, cm := stats.Median(p), stats.Median(c)
	j := judgement{pairs: min(len(p), len(c))}
	if pm != 0 {
		j.change = (cm - pm) / math.Abs(pm)
	}
	better := func(x, y float64) bool { // x reads better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins := 0
	for i := 0; i < j.pairs; i++ {
		if better(c[i], p[i]) {
			wins++
		}
	}
	if j.pairs > 0 {
		j.winFrac = float64(wins) / float64(j.pairs)
	}
	worse := j.change
	if m.Better == "higher" {
		worse = -worse
	}
	spread := stats.Quantile(p, 0.75) - stats.Quantile(p, 0.25)
	allBetter := better(stats.Max(c), stats.Min(p))
	if m.Better == "higher" {
		allBetter = better(stats.Min(c), stats.Max(p))
	}
	switch {
	case !bounded:
		j.verdict = "-"
	case j.pairs < minPairs:
		j.verdict = fmt.Sprintf("unresolved (%d pairs, need %d)", j.pairs, minPairs)
	case 10*wins >= 9*j.pairs && better(cm, pm) && math.Abs(cm-pm) > spread:
		j.verdict = "improved"
	case worse > m.Bound:
		j.verdict = "regressed"
	case pm != 0 && spread/math.Abs(pm) > m.Bound && !allBetter:
		j.verdict = "unresolved (parent spread exceeds the bound)"
	default:
		j.verdict = "unchanged"
	}
	return j
}
