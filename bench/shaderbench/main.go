// Command shaderbench is the repository's benchmark: it runs the real
// study and service entry points on seeded inputs, times them from outside
// with tracing off, and checks every score bit against a committed golden.
//
// Usage, from the repository root (bench/run.sh builds the binary into
// .bench_build/ and runs it with the given flags):
//
//	bash bench/run.sh -workload all -seed 1
//	bash bench/run.sh --workload cold-corpus --seed 3 --seconds 15 --trace 0
//	bash bench/run.sh --workload cold-corpus --trace 1 --trace-out replay.json
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//
// A run (-trace 0) prints the end-to-end metrics of one workload; a traced
// run (-trace 1) replays the pipeline layer by layer through each layer's
// public functions, wrapped in spans the benchmark records itself, and
// prints the per-layer metrics. Either way the last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. -workload all runs every workload in a fresh child process,
// one at a time. -record FILE appends each run's record to a JSON-lines
// file, and -compare reads two such files (parent first) and gives a
// verdict per workload and metric against the bounds in BENCHMARK.json.
// See bench/README.md for the workloads and how to read the results.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

func main() {
	name := flag.String("workload", "all", "workload to run: all, cold-corpus, cold-store, warm-store or daemon-warm")
	seed := flag.Int64("seed", 1, "input seed: the corpus order of the studies and the daemon's request sequence")
	seconds := flag.Int("seconds", 15, "how long one run measures")
	trace := flag.Int("trace", 0, "1 runs the traced layer replay and prints the per-layer metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the replay's spans as Chrome trace JSON to this file")
	record := flag.String("record", "", "append each run's record to this JSON-lines file")
	compare := flag.Bool("compare", false, "compare two -record files given as arguments: parent, then change")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two record files: parent.jsonl change.jsonl"))
		}
		if err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	if *name == "all" {
		if err := runAll(*seed, *seconds, *trace, *traceOut, *record); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	dir, err := workDir(".bench_build/work")
	if err != nil {
		fatal(err)
	}
	cfg := runConfig{workload: w, seed: *seed, window: time.Duration(*seconds) * time.Second, workdir: dir, traceOut: *traceOut}
	var r *result
	if *trace == 1 {
		r, err = runTraced(cfg)
	} else {
		r, err = run(cfg)
	}
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	for _, line := range r.notes {
		fmt.Println(line)
	}
	for _, k := range sortedMetricNames(r.Metrics) {
		fmt.Printf("%-40s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	if *record != "" {
		rec := runRecord{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
			Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Result: *r}
		if err := appendRecord(*record, rec); err != nil {
			fatal(err)
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "shaderbench:", err)
	os.Exit(1)
}

// runRecord is one line of a -record file: a run's settings, the machine
// it ran on, and its result.
type runRecord struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Result     result `json:"result"`
}

func appendRecord(path string, rec runRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a fresh child process, one at a time, so
// each reports its own peak RSS, and ends with one JSON object whose
// metrics are named workload/metric.
func runAll(seed int64, seconds, trace int, traceOut, record string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		fmt.Printf("== %s: %s\n", w.name, w.why)
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}
		if traceOut != "" {
			args = append(args, "-trace-out", filepath.Join(filepath.Dir(traceOut), w.name+"-"+filepath.Base(traceOut)))
		}
		if record != "" {
			args = append(args, "-record", record)
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		var last string
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if last != "" {
				fmt.Println(last)
			}
			last = sc.Text()
		}
		if err := cmd.Wait(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			return fmt.Errorf("%s: reading its result: %w", w.name, err)
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, m := range r.Metrics {
			all.Metrics[w.name+"/"+k] = m
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// sortedMetricNames returns a result's metric names in order.
func sortedMetricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
