package main

// End-to-end tests of the sweep command: run renders the study through
// the same path the binary does, and its stdout is compared against
// testdata/study.golden or checked figure by figure.

import (
	"bytes"
	"io"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"shaderopt/internal/gpu"
	"shaderopt/internal/sweepd"
)

// TestGoldenStudy pins the whole study: the stdout of
// `sweep -exp all -report transfer,groups -fast -workers 2` on the full
// corpus and the five-platform roster.
func TestGoldenStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus sweep")
	}
	var out bytes.Buffer
	c := cliConfig{exp: "all", expSet: true, reports: "transfer,groups", lang: "all", fast: true, workers: 2}
	if err := run(c, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "study", out.String())
}

// figures splits rendered output into its figures, keyed by the title up
// to its first ". " ("Figure 6", "Figure 7 (ARM)").
func figures(out string) map[string][]string {
	figs := map[string][]string{}
	var key string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Figure ") {
			key, _, _ = strings.Cut(line, ". ")
		}
		if key != "" {
			figs[key] = append(figs[key], line)
		}
	}
	return figs
}

var percent = regexp.MustCompile(`[+-]\d+\.\d+%`)

// measured reports whether any percentage in lines is non-zero.
func measured(lines []string) bool {
	for _, line := range lines {
		for _, p := range percent.FindAllString(line, -1) {
			if p != "+0.00%" && p != "-0.00%" {
				return true
			}
		}
	}
	return false
}

// cells returns the trimmed "|"-separated cells of a table line.
func cells(line string) []string {
	fields := strings.Split(line, "|")
	for i, f := range fields {
		fields[i] = strings.TrimSpace(f)
	}
	return fields
}

// TestEveryPlatformFigureMeasured: every per-platform figure carries a
// non-zero value for every roster platform, so a figure that reads its
// scores under a name the sweep did not measure shows up as a failure.
func TestEveryPlatformFigureMeasured(t *testing.T) {
	var out bytes.Buffer
	c := cliConfig{exp: "fig6,fig7,fig8,fig9", expSet: true, lang: "wgsl", fast: true}
	if err := run(c, &out); err != nil {
		t.Fatal(err)
	}
	figs := figures(out.String())
	fig8 := figs["Figure 8"]
	var header []string
	for _, line := range fig8 {
		if strings.HasPrefix(line, "Flag ") {
			header = cells(line)
		}
	}
	for _, p := range gpu.Platforms() {
		v := p.Vendor
		var row []string
		for _, line := range figs["Figure 6"] {
			if cells(line)[0] == v {
				row = append(row, line)
			}
		}
		if len(row) != 1 || !measured(row) {
			t.Errorf("Figure 6 has no measured row for %s: %q", v, row)
		}
		for _, fig := range []string{"Figure 7", "Figure 9"} {
			if name := fig + " (" + v + ")"; !measured(figs[name]) {
				t.Errorf("%s is missing or reads zero everywhere:\n%s", name, strings.Join(figs[name], "\n"))
			}
		}
		col := -1
		for i, h := range header {
			if h == "opt "+v {
				col = i
			}
		}
		opt := 0
		for _, line := range fig8 {
			if row := cells(line); col > 0 && len(row) == len(header) && row[0] != "Flag" {
				n, _ := strconv.Atoi(row[col])
				opt += n
			}
		}
		if opt == 0 {
			t.Errorf("Figure 8 has no non-zero opt %s cell:\n%s", v, strings.Join(fig8, "\n"))
		}
	}
}

// TestPlatformFilter: -platform names a roster vendor and selects its one
// Fig. 7 and Fig. 9 panel; any other name is an error listing the roster.
func TestPlatformFilter(t *testing.T) {
	var out bytes.Buffer
	c := cliConfig{exp: "fig7,fig9", expSet: true, platform: "ARM", lang: "wgsl", fast: true}
	if err := run(c, &out); err != nil {
		t.Fatal(err)
	}
	figs := figures(out.String())
	var panels []string
	for name := range figs {
		panels = append(panels, name)
	}
	if len(figs) != 2 || figs["Figure 7 (ARM)"] == nil || figs["Figure 9 (ARM)"] == nil {
		t.Errorf("-platform ARM rendered panels %q, want Figure 7 (ARM) and Figure 9 (ARM)", panels)
	}

	c.platform = "Mali"
	err := run(c, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "Mali") || !strings.Contains(err.Error(), "Intel, AMD, NVIDIA, ARM, Qualcomm") {
		t.Errorf("-platform Mali: err = %v, want an error naming it and listing the roster", err)
	}
}

// TestRemoteSweepRoster: a daemon measuring the local roster renders
// every figure exactly as a local sweep does, and one that measured fewer
// vendors is an error naming the shader and the missing vendor, not a
// study that reads zero for that vendor.
func TestRemoteSweepRoster(t *testing.T) {
	c := cliConfig{exp: "table1,fig6,fig7,fig8,fig9", expSet: true, lang: "wgsl", fast: true}
	var local, remote bytes.Buffer
	if err := run(c, &local); err != nil {
		t.Fatal(err)
	}
	full := httptest.NewServer(sweepd.New(sweepd.Config{}).Handler())
	defer full.Close()
	c.server = full.URL
	if err := run(c, &remote); err != nil {
		t.Fatal(err)
	}
	// The line after the Corpus header says where the sweep ran.
	_, localFigs, _ := strings.Cut(local.String(), "...\n")
	_, remoteFigs, _ := strings.Cut(remote.String(), "...\n")
	if localFigs == "" || remoteFigs != localFigs {
		t.Errorf("remote figures differ from local ones:\n--- remote ---\n%s\n--- local ---\n%s", remote.String(), local.String())
	}

	partial := httptest.NewServer(sweepd.New(sweepd.Config{Platforms: []*gpu.Platform{gpu.NewNVIDIA()}}).Handler())
	defer partial.Close()
	c.server = partial.URL
	err := run(c, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "Intel") || !strings.Contains(err.Error(), "wgsl/") {
		t.Fatalf("partial-roster daemon: err = %v, want one naming a wgsl shader and Intel", err)
	}
}
