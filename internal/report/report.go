// Package report renders the paper's tables and figures as text: Table I
// (best static flags), the Fig. 3 motivating-example table and histogram,
// the Fig. 4 corpus characterizations, the Fig. 5-9 evaluation charts,
// and the comparative study layer — Table I / Fig. 5 re-learned per
// source language or ingestion format (Table1Grouped, Fig5Grouped) and
// the cross-language / cross-backend transfer matrices (TransferMatrix,
// with TransferHeadline's grep-able summary line for the nightly).
package report

import (
	"fmt"
	"sort"
	"strings"

	"shaderopt/internal/analysis"
	"shaderopt/internal/core"
	"shaderopt/internal/passes"
	"shaderopt/internal/search"
	"shaderopt/internal/stats"
)

// flagHeaders are Table I's column titles, in the paper's order.
var flagHeaders = []struct {
	flag  core.Flags
	title string
}{
	{passes.FlagADCE, "ADCE"},
	{passes.FlagCoalesce, "Coalesce"},
	{passes.FlagGVN, "GVN"},
	{passes.FlagReassociate, "Reassociate"},
	{passes.FlagUnroll, "Unroll"},
	{passes.FlagHoist, "Hoist"},
	{passes.FlagFPReassociate, "FP Reassociate"},
	{passes.FlagDivToMul, "Div to Mul"},
}

// Table1 renders the best-static-flags table.
func Table1(rows []search.MeanSpeedups) string {
	var sb strings.Builder
	sb.WriteString("Table I. Best static flags per platform (flags maximising mean speed-up)\n\n")
	fmt.Fprintf(&sb, "%-10s", "Platform")
	for _, h := range flagHeaders {
		fmt.Fprintf(&sb, " | %-14s", h.title)
	}
	sb.WriteString(" | Mean speed-up\n")
	sb.WriteString(strings.Repeat("-", 10+len(flagHeaders)*17+16) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s", r.Vendor)
		for _, h := range flagHeaders {
			mark := "-"
			if r.StaticSet.Has(h.flag) {
				mark = "X"
			}
			fmt.Fprintf(&sb, " | %-14s", mark)
		}
		fmt.Fprintf(&sb, " | %+.2f%%\n", r.BestStatic)
	}
	return sb.String()
}

// Fig5 renders the overall mean speedups chart.
func Fig5(rows []search.MeanSpeedups) string {
	var sb strings.Builder
	sb.WriteString("Figure 5. Average percentage speed-ups across all shaders\n\n")
	fmt.Fprintf(&sb, "%-10s | %-22s | %-22s | %-22s\n", "Platform", "Best per shader", "Default LunarGlass", "Best static flags")
	sb.WriteString(strings.Repeat("-", 85) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s | %+7.2f%% %-12s | %+7.2f%% %-12s | %+7.2f%% %-12s\n",
			r.Vendor,
			r.Best, bar(r.Best, 1),
			r.Default, bar(r.Default, 1),
			r.BestStatic, bar(r.BestStatic, 1))
	}
	return sb.String()
}

// Fig6 renders the top-30 most-improved shaders means, aligned with vendors.
func Fig6(vendors []string, means []float64) string {
	var sb strings.Builder
	sb.WriteString("Figure 6. Average speed-up of the 30 most-improved shaders per platform\n\n")
	for i, v := range vendors {
		fmt.Fprintf(&sb, "%-10s | %+7.2f%% %s\n", v, means[i], bar(means[i], 0.5))
	}
	return sb.String()
}

// Fig7 renders per-shader speedup curves (best / default / best static) as
// a compact table of ranked shaders.
func Fig7(vendor string, per []search.PerShader, maxRows int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 7 (%s). Per-shader speed-ups, ranked by best variant\n\n", vendor)
	fmt.Fprintf(&sb, "%-24s | %9s | %9s | %9s\n", "Shader", "Best", "Default", "Static")
	sb.WriteString(strings.Repeat("-", 62) + "\n")
	rows := per
	if maxRows > 0 && len(rows) > maxRows {
		rows = rows[:maxRows]
	}
	for _, p := range rows {
		fmt.Fprintf(&sb, "%-24s | %+8.2f%% | %+8.2f%% | %+8.2f%%\n", p.Name, p.Best, p.Default, p.BestStatic)
	}
	if maxRows > 0 && len(per) > maxRows {
		fmt.Fprintf(&sb, "... (%d more shaders)\n", len(per)-maxRows)
	}
	var bests, defaults, statics []float64
	for _, p := range per {
		bests = append(bests, p.Best)
		defaults = append(defaults, p.Default)
		statics = append(statics, p.BestStatic)
	}
	sb.WriteString("\nSummary (min / median / max):\n")
	fmt.Fprintf(&sb, "  best    %+7.2f%% / %+7.2f%% / %+7.2f%%\n", stats.Min(bests), stats.Median(bests), stats.Max(bests))
	fmt.Fprintf(&sb, "  default %+7.2f%% / %+7.2f%% / %+7.2f%%\n", stats.Min(defaults), stats.Median(defaults), stats.Max(defaults))
	fmt.Fprintf(&sb, "  static  %+7.2f%% / %+7.2f%% / %+7.2f%%\n", stats.Min(statics), stats.Median(statics), stats.Max(statics))
	return sb.String()
}

// Fig8 renders flag applicability (total / changes-code / in-optimal-set).
func Fig8(apps []search.FlagApplicability, vendors []string) string {
	var sb strings.Builder
	sb.WriteString("Figure 8. Per-flag applicability: total shaders (all), output-changing (chg),\n")
	sb.WriteString("and in the optimal 10% of variants (opt, per platform)\n\n")
	fmt.Fprintf(&sb, "%-15s | %5s | %5s", "Flag", "all", "chg")
	for _, v := range vendors {
		fmt.Fprintf(&sb, " | opt %-9s", v)
	}
	sb.WriteString("\n" + strings.Repeat("-", 31+len(vendors)*16) + "\n")
	for _, a := range apps {
		fmt.Fprintf(&sb, "%-15s | %5d | %5d", passes.FlagName(a.Flag), a.Total, a.ChangesCode)
		for i := range vendors {
			fmt.Fprintf(&sb, " | %-13d", a.InOptimalSet[i])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Fig9 renders the per-flag isolated-impact violins for one platform.
func Fig9(vendor string, iso map[core.Flags][]float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 9 (%s). Per-flag speed-up vs all-off baseline (violin summaries)\n\n", vendor)
	fmt.Fprintf(&sb, "%-15s | %8s %8s %8s %8s %8s | %8s\n", "Flag", "min", "p25", "med", "p75", "max", "mean")
	sb.WriteString(strings.Repeat("-", 78) + "\n")
	for _, f := range passes.FlagList() {
		sm := stats.Summarize(iso[f])
		fmt.Fprintf(&sb, "%-15s | %+7.2f%% %+7.2f%% %+7.2f%% %+7.2f%% %+7.2f%% | %+7.2f%%\n",
			passes.FlagName(f), sm.Min, sm.P25, sm.Median, sm.P75, sm.Max, sm.Mean)
	}
	return sb.String()
}

// Histogram renders an ASCII histogram of values.
func Histogram(title string, values []float64, lo, hi float64, bins int) string {
	h := stats.NewHistogram(values, lo, hi, bins)
	var sb strings.Builder
	sb.WriteString(title + "\n\n")
	maxC := h.MaxCount()
	if maxC == 0 {
		maxC = 1
	}
	for i, c := range h.Counts {
		width := c * 40 / maxC
		fmt.Fprintf(&sb, "%+8.1f%% | %-40s %d\n", h.BinCenter(i), strings.Repeat("#", width), c)
	}
	return sb.String()
}

// Fig4a renders the lines-of-code distribution.
func Fig4a(locs []analysis.LoC) string {
	var sb strings.Builder
	sb.WriteString("Figure 4a. Lines of code per shader (after preprocessing), descending\n\n")
	values := make([]float64, len(locs))
	for i, l := range locs {
		values[i] = float64(l.Lines)
	}
	writeDescendingCurve(&sb, values, 50)
	under50 := 0
	for _, l := range locs {
		if l.Lines < 50 {
			under50++
		}
	}
	fmt.Fprintf(&sb, "\nShaders: %d; max %d lines; %d (%.0f%%) under 50 lines\n",
		len(locs), locs[0].Lines, under50, 100*float64(under50)/float64(len(locs)))
	return sb.String()
}

// Fig4b renders the ARM static cycle distribution.
func Fig4b(cycles []analysis.StaticCycles) string {
	var sb strings.Builder
	sb.WriteString("Figure 4b. ARM static analyser cycles (arith + load/store + texture),\nlongest execution path, descending\n\n")
	values := make([]float64, len(cycles))
	for i, c := range cycles {
		values[i] = c.Total()
	}
	writeDescendingCurve(&sb, values, 50)
	fmt.Fprintf(&sb, "\nTop shader: %s (A %.1f / LS %.1f / T %.1f)\n",
		cycles[0].Name, cycles[0].Arith, cycles[0].LoadStore, cycles[0].Texture)
	return sb.String()
}

// Fig4c renders the unique-variant counts.
func Fig4c(uniq []analysis.Uniqueness) string {
	var sb strings.Builder
	sb.WriteString("Figure 4c. Unique shader variants out of 256 flag combinations, descending\n\n")
	values := make([]float64, len(uniq))
	for i, u := range uniq {
		values[i] = float64(u.Unique)
	}
	writeDescendingCurve(&sb, values, 50)
	under10 := 0
	for _, u := range uniq {
		if u.Unique < 10 {
			under10++
		}
	}
	fmt.Fprintf(&sb, "\nMax %d variants (%s); %d of %d shaders below 10 variants\n",
		uniq[0].Unique, uniq[0].Name, under10, len(uniq))
	return sb.String()
}

// Fig3 renders the motivating example per-platform gains (aligned with
// vendors) plus the all-shaders distribution histogram for one platform.
func Fig3(vendors []string, gains []float64, histVendor string, dist []float64) string {
	var sb strings.Builder
	sb.WriteString("Figure 3. Motivating example (Listing 1 blur): best-variant speed-up per platform\n\n")
	for i, v := range vendors {
		fmt.Fprintf(&sb, "  %-10s %+7.2f%% %s\n", v, gains[i], bar(gains[i], 0.5))
	}
	sb.WriteString("\n")
	sb.WriteString(Histogram(
		fmt.Sprintf("Speed-up distribution applying the same optimization to all shaders (%s)", histVendor),
		dist, -35, 15, 20))
	return sb.String()
}

// writeDescendingCurve renders sorted values as a fixed-width bar curve.
func writeDescendingCurve(sb *strings.Builder, values []float64, width int) {
	sorted := append([]float64(nil), values...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	maxV := sorted[0]
	if maxV <= 0 {
		maxV = 1
	}
	// Show at most ~20 representative rows (deciles of the rank axis).
	step := len(sorted) / 20
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(sorted); i += step {
		w := int(sorted[i] / maxV * float64(width))
		fmt.Fprintf(sb, "#%-4d %7.1f | %s\n", i+1, sorted[i], strings.Repeat("#", w))
	}
}

func bar(v float64, scale float64) string {
	n := int(v * scale)
	if n < 0 {
		n = -n
		if n > 30 {
			n = 30
		}
		return strings.Repeat("-", n)
	}
	if n > 30 {
		n = 30
	}
	return strings.Repeat("+", n)
}
