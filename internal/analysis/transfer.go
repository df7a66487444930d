package analysis

// The comparative study layer: sweep results aggregated by source
// language and by driver ingestion format, and the transfer matrix that
// asks the paper's core question of the whole 4-frontend × 3-backend
// grid at once — does a flag set learned offline on one language (or
// ingestion format) keep its win when applied to another?
//
// Wins here are measured against the all-off variant baseline (the
// paper's §VI-D framing), not the original source: the all-off variant
// is a member of every shader's enumerated set, so win(NoFlags) is zero
// by construction, the self-win of a learned set is never negative, and
// codegen artefacts of a frontend's original text cancel out of the
// cross-language comparison. The grouped Table I / Fig. 5 rows keep the
// original-source baseline, matching the ungrouped renderers.

import (
	"math"
	"sort"
	"strings"

	"shaderopt/internal/core"
	"shaderopt/internal/crossc"
	"shaderopt/internal/harness"
	"shaderopt/internal/search"
)

// TransferCell is one matrix entry: the best static flag set learned on
// the From group, applied to the To group.
type TransferCell struct {
	From, To    string
	Flags       core.Flags // best static set learned on From (vs all-off)
	SelfWin     float64    // From's mean win with its own best set, %
	TransferWin float64    // To's mean win under From's set, %
	Retention   float64    // fraction of SelfWin kept (1.0 = 100%)
	Exact       bool       // computed on the pinned twin-family pairing
}

// TransferMatrix is the full grid for one comparison axis. Cells[i][j]
// transfers the set learned on Groups[i] to Groups[j]; the diagonal is
// the self-transfer (retention 1 by definition).
type TransferMatrix struct {
	Axis   string // "language" or "backend"
	Groups []string
	Cells  [][]TransferCell
}

// group is one side of a transfer: a result subset scored on a vendor
// subset. The language axis splits results and keeps all vendors; the
// backend axis keeps all results and splits vendors by ingestion format.
type group struct {
	name    string
	results []*search.ShaderResult
	vendors []string
}

// winOver returns the mean speed-up of one flag combination against the
// all-off variant baseline over the group's result × vendor grid.
func winOver(g group, flags core.Flags) float64 {
	if len(g.results) == 0 || len(g.vendors) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range g.results {
		for _, v := range g.vendors {
			sum += harness.Speedup(r.NSFor(v, core.NoFlags), r.NSFor(v, flags))
		}
	}
	return sum / float64(len(g.results)*len(g.vendors))
}

// bestWinOver returns the flag combination maximising winOver, ties
// resolved to the first combination in ascending flag-value order — the
// all-off set itself is combination zero, so the returned win is never
// negative and a group with no headroom deterministically learns NoFlags.
// One pass adds each (shader, vendor) pair's distinct variant wins to every
// combination, in winOver's order, so each mean carries winOver's bits.
func bestWinOver(g group) (core.Flags, float64) {
	n := len(g.results) * len(g.vendors)
	if n == 0 {
		return core.NoFlags, 0
	}
	var sums search.FlagSums
	for _, r := range g.results {
		for _, v := range g.vendors {
			sums.AddSpeedups(r, v, r.NSFor(v, core.NoFlags))
		}
	}
	return sums.Argmax(n, math.Inf(-1))
}

// retention maps (self win, transferred win) to the fraction kept. A
// group with zero headroom (SelfWin == 0, i.e. it learned the all-off
// set) retains everything exactly when the transfer also wins nothing.
func retention(selfWin, transferWin float64) float64 {
	if selfWin > 0 {
		return transferWin / selfWin
	}
	if transferWin == 0 {
		return 1
	}
	return 0
}

// cellBetween scores on to the set learned on from, whose own win is
// selfWin.
func cellBetween(from, to group, flags core.Flags, selfWin float64, exact bool) TransferCell {
	transferWin := winOver(to, flags)
	return TransferCell{
		From: from.name, To: to.name, Flags: flags,
		SelfWin: selfWin, TransferWin: transferWin,
		Retention: retention(selfWin, transferWin), Exact: exact,
	}
}

// twinPrefix names the corpus family that is a pinned instance-for-
// instance port in the given language: the GLSL tonemap family and its
// HLSL twin share identical 256-entry flag→variant partitions, so
// transfer between them is computed exactly on the paired subsets
// instead of best-effort on the full groups.
func twinPrefix(lang string) string {
	switch lang {
	case core.LangGLSL.String():
		return "tonemap/"
	case core.LangHLSL.String():
		return "hlsl/"
	}
	return ""
}

// twinSlices returns the instance-paired twin subsets of two language
// groups, aligned index-for-index, or ok=false when the pair has no
// pinned twins (same language, non-twin languages, or no shared
// instances in the sweep — e.g. a filtered corpus).
func twinSlices(from, to group) (fromTwins, toTwins []*search.ShaderResult, ok bool) {
	fp, tp := twinPrefix(from.name), twinPrefix(to.name)
	if from.name == to.name || fp == "" || tp == "" {
		return nil, nil, false
	}
	fromByInst := instanceMap(from.results, fp)
	toByInst := instanceMap(to.results, tp)
	var insts []string
	for inst := range fromByInst {
		if _, present := toByInst[inst]; present {
			insts = append(insts, inst)
		}
	}
	if len(insts) == 0 {
		return nil, nil, false
	}
	sort.Strings(insts)
	for _, inst := range insts {
		fromTwins = append(fromTwins, fromByInst[inst])
		toTwins = append(toTwins, toByInst[inst])
	}
	return fromTwins, toTwins, true
}

// instanceMap indexes a family's results by instance name (the part
// after the family prefix).
func instanceMap(results []*search.ShaderResult, prefix string) map[string]*search.ShaderResult {
	m := map[string]*search.ShaderResult{}
	for _, r := range results {
		if strings.HasPrefix(r.Handle.Name, prefix) {
			m[strings.TrimPrefix(r.Handle.Name, prefix)] = r
		}
	}
	return m
}

// langGroups splits the sweep's results by source language, in order of
// first appearance (deterministic: result order is corpus order).
func langGroups(s *search.Sweep) []group {
	vendors := make([]string, len(s.Platforms))
	for i, p := range s.Platforms {
		vendors[i] = p.Vendor
	}
	var order []string
	byLang := map[string][]*search.ShaderResult{}
	for _, r := range s.Results {
		l := r.Lang().String()
		if _, seen := byLang[l]; !seen {
			order = append(order, l)
		}
		byLang[l] = append(byLang[l], r)
	}
	groups := make([]group, len(order))
	for i, l := range order {
		groups[i] = group{name: l, results: byLang[l], vendors: vendors}
	}
	return groups
}

// ingestGroups splits the sweep's vendor roster by driver ingestion
// format, in roster order; every group scores the full result set.
func ingestGroups(s *search.Sweep) []group {
	var order []string
	byIngest := map[string][]string{}
	for _, p := range s.Platforms {
		ing := p.Ingest
		if ing == "" {
			ing = crossc.IngestGLSL
		}
		if _, seen := byIngest[ing]; !seen {
			order = append(order, ing)
		}
		byIngest[ing] = append(byIngest[ing], p.Vendor)
	}
	groups := make([]group, len(order))
	for i, ing := range order {
		groups[i] = group{name: ing, results: s.Results, vendors: byIngest[ing]}
	}
	return groups
}

// LangTransferMatrix builds the language×language transfer matrix: the
// best static set learned on each source language (all vendors), applied
// to every other language. The GLSL↔HLSL cells are computed exactly on
// the pinned tonemap twin pairing when both sides are present.
func LangTransferMatrix(s *search.Sweep) *TransferMatrix {
	groups := langGroups(s)
	m := &TransferMatrix{Axis: "language"}
	for _, g := range groups {
		m.Groups = append(m.Groups, g.name)
	}
	for _, from := range groups {
		flags, selfWin := bestWinOver(from)
		var row []TransferCell
		for _, to := range groups {
			if ft, tt, ok := twinSlices(from, to); ok {
				twins := group{name: from.name, results: ft, vendors: from.vendors}
				twinFlags, twinWin := bestWinOver(twins)
				row = append(row, cellBetween(twins,
					group{name: to.name, results: tt, vendors: to.vendors},
					twinFlags, twinWin, true))
				continue
			}
			row = append(row, cellBetween(from, to, flags, selfWin, false))
		}
		m.Cells = append(m.Cells, row)
	}
	return m
}

// BackendTransferMatrix builds the backend×backend transfer matrix: the
// best static set learned on the vendors ingesting one format (all
// shaders), applied to the vendors ingesting every other format.
func BackendTransferMatrix(s *search.Sweep) *TransferMatrix {
	groups := ingestGroups(s)
	m := &TransferMatrix{Axis: "backend"}
	for _, g := range groups {
		m.Groups = append(m.Groups, g.name)
	}
	for _, from := range groups {
		flags, selfWin := bestWinOver(from)
		var row []TransferCell
		for _, to := range groups {
			row = append(row, cellBetween(from, to, flags, selfWin, false))
		}
		m.Cells = append(m.Cells, row)
	}
	return m
}

// BestCross returns the off-diagonal cell with the highest retention —
// the matrix's headline number (how well the best-transferring pair
// holds up). Ties resolve to the first cell in row-major order; ok is
// false for a single-group matrix.
func (m *TransferMatrix) BestCross() (TransferCell, bool) {
	var best TransferCell
	found := false
	for i, row := range m.Cells {
		for j, c := range row {
			if i == j {
				continue
			}
			if !found || c.Retention > best.Retention {
				best, found = c, true
			}
		}
	}
	return best, found
}

// GroupMeans is one comparison group's slice of the study: its label,
// size, and the per-vendor Table I / Fig. 5 aggregates computed over the
// group alone (original-source baseline, like the ungrouped reports).
type GroupMeans struct {
	Group   string
	Shaders int
	Rows    []search.MeanSpeedups
}

// LangGroupMeans computes the grouped Table I / Fig. 5 rows per source
// language: every vendor's best static set re-learned on just that
// language's shaders.
func LangGroupMeans(s *search.Sweep) []GroupMeans { return groupMeans(langGroups(s)) }

// BackendGroupMeans computes the grouped Table I / Fig. 5 rows per
// driver ingestion format: the full corpus, with the roster's vendors
// regrouped by what their driver ingests.
func BackendGroupMeans(s *search.Sweep) []GroupMeans { return groupMeans(ingestGroups(s)) }

func groupMeans(groups []group) []GroupMeans {
	var out []GroupMeans
	for _, g := range groups {
		gm := GroupMeans{Group: g.name, Shaders: len(g.results)}
		for _, v := range g.vendors {
			gm.Rows = append(gm.Rows, search.MeanSpeedupsOver(g.results, v))
		}
		out = append(out, gm)
	}
	return out
}
