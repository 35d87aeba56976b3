// Command perfbench is sigstream's end-to-end benchmark. It starts real
// sigserver processes, drives one workload against them, checks the
// answers, and prints one JSON result line. With -trace 1 it also replays
// the workload's inputs through each layer's public functions and reports
// per-layer times and counts. See README.md for the workloads and
// metrics; run it through run.sh, which builds both programs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// gateError is a failed correctness check: the program answered wrongly.
type gateError struct{ msg string }

// Error implements error.
func (g *gateError) Error() string { return "correctness gate failed: " + g.msg }

func gatef(format string, args ...any) error {
	return &gateError{msg: fmt.Sprintf(format, args...)}
}

// env is what every workload needs: where the programs and scratch
// space are, and the run's parameters.
type env struct {
	sigserver string
	work      string
	seed      int64
	seconds   float64
	sz        sizes
	out       io.Writer // human-readable report lines
}

// body returns the measured-phase length.
func (e *env) body() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// live is the outcome of one live run: end-to-end metrics, operation
// counts, and the end-to-end time of one operation for reconciliation.
type live struct {
	metrics   map[string]metric // the end-to-end metrics every workload reports
	extra     map[string]metric // this workload's own metrics, printed but not in the result
	attempted int64
	failed    int64
	opNs      float64 // end-to-end time of one operation
	opName    string  // what one operation is
	genLateMs float64 // open-loop producer lateness p99, ms (cluster-gather only)
	overhead  float64 // traced / untraced operation time - 1 (traced runs only)
	spans     *tracer // the traced half's spans (traced runs only)
	// cluster-gather's traced half: checkpoint MiB fetched per round and
	// the coordinator's fetches per round.
	fetchMiBPerRound, fetchesPerRound float64
}

// workload is one traffic mix.
type workload struct {
	name string
	// bench builds the workload's live runner and says what one of its
	// operations is.
	bench func(e *env) (liveBench, string)
}

var workloads = []workload{
	{name: "ingest-durable", bench: newDurable},
	{name: "http-multitenant", bench: newMultitenant},
	{name: "cluster-gather", bench: newGather},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: ingest-durable, http-multitenant or cluster-gather")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured-phase length in seconds")
	trace := fs.Int("trace", 0, "1 = per-layer traced run")
	sigserver := fs.String("sigserver", "", "sigserver binary")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *sigserver == "" || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: need -sigserver and -workload ingest-durable|http-multitenant|cluster-gather")
		return 2
	}
	if _, err := os.Stat(*sigserver); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	work := filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(work)
	e := &env{sigserver: *sigserver, work: work, seed: *seed, seconds: *seconds, sz: fullSizes, out: stdout}
	res, err := runOne(e, w, *trace == 1)
	var gate *gateError
	switch {
	case errors.As(err, &gate):
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		printResult(stdout, res)
		return 1
	case err != nil:
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	printResult(stdout, res)
	return 0
}

// runOne runs one workload, untraced or traced, and assembles its result.
func runOne(e *env, w workload, traced bool) (result, error) {
	fp := fingerprint(e.work)
	fmt.Fprintf(e.out, "fingerprint %s\n", fp)
	steal0, total0 := cpuTicks()
	defer func() {
		steal1, total1 := cpuTicks()
		if total1 > total0 {
			fmt.Fprintf(e.out, "steal_share %.3f (CPU time the hypervisor gave to other machines during the run)\n",
				float64(steal1-steal0)/float64(total1-total0))
		}
	}()
	b, opName := w.bench(e)
	lv, err := runLive(e, traced, b, opName)
	res := result{Metrics: map[string]metric{}}
	if lv != nil {
		res.Attempted, res.Failed = lv.attempted, lv.failed
	}
	if err != nil {
		return res, err
	}
	res.Correct = true
	if !traced {
		b, err := json.Marshal(lv.extra)
		if err != nil {
			return res, err
		}
		fmt.Fprintf(e.out, "extra %s %s\n", w.name, b)
		res.Metrics = lv.metrics
		return res, nil
	}
	if err := lv.spans.writeJSONL(filepath.Join(filepath.Dir(e.work), "spans-live-"+w.name+".jsonl")); err != nil {
		return res, err
	}
	layers, err := replayLayers(e, w.name, lv)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(e.out, "reconcile %s: op=%s end_to_end=%.1fus layers_self_sum=%.1fus unattributed_share=%.3f\n",
		w.name, lv.opName, lv.opNs/1e3, layers.selfNsPerOp/1e3, layers.metrics["trace.unattributed_share"].Value)
	for _, l := range layers.selfParts {
		fmt.Fprintf(e.out, "reconcile %s:   %-28s %10.1fus per op\n", w.name, l.name, l.ns/1e3)
	}
	res.Metrics = layers.metrics
	return res, nil
}

func printResult(w io.Writer, res result) {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Fprintln(w, string(b))
}

// fingerprint describes the host and the placement of the run's files,
// so numbers from different placements are never compared silently.
func fingerprint(work string) string {
	fp := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"wal_fs":     fsKind(work),
	}
	b, err := json.Marshal(fp)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat; zeros when unavailable.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9 and 10) are already in user time.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// fsKind reports whether dir sits on tmpfs or on a disk file system.
func fsKind(dir string) string {
	const tmpfsMagic = 0x01021994
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if st.Type == tmpfsMagic {
		return "tmpfs"
	}
	return "disk"
}
