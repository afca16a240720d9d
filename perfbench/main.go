// Command perfbench is enttrace's repository benchmark. It analyzes
// cached pcap inputs through the library's public entry points, checks
// every output against a reference run, and prints one JSON result line.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	perfbench --workload campaign-d3|headers-d1|fleet-window --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured
// untraced. With --trace 1 it carries the per-layer ledger: spans around
// every call into a layer, plus the extra by-difference passes (read
// only, read+decode, flow only, one worker, payload and window toggled).
// See README.md for the workloads and the layer → metric → workload map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"

	"enttrace/internal/enterprise"
)

// workload is one benchmark input set and how the program is run on it.
type workload struct {
	name    string
	dataset func() enterprise.Config
	payload bool
	fleet   bool
}

var workloads = []workload{
	{name: "campaign-d3", dataset: enterprise.D3, payload: true},
	{name: "headers-d1", dataset: enterprise.D1, payload: false},
	{name: "fleet-window", dataset: enterprise.D3, payload: true, fleet: true},
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations: trace ingests, reference checks, shipped
// deltas and queries. A failure is never dropped; each one is also
// described on standard error.
type tally struct {
	attempted, failed int64
}

func (t *tally) add(ok bool, format string, args ...any) {
	failed := int64(0)
	if !ok {
		failed = 1
	}
	t.addN(1, failed, format, args...)
}

// addN counts n operations of which failed failed.
func (t *tally) addN(n, failed int64, format string, args ...any) {
	t.attempted += n
	if failed > 0 {
		t.failed += failed
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

// envStamp records the conditions a result was measured under.
type envStamp struct {
	NumCPU        int         `json:"nproc"`
	GOMAXPROCS    int         `json:"gomaxprocs"`
	Workers       int         `json:"workers"`
	ReplayWorkers int         `json:"replay_workers"`
	GoVersion     string      `json:"go_version"`
	Network       string      `json:"network"`
	Load1Start    float64     `json:"load1_start"`
	Load1End      float64     `json:"load1_end"`
	Workload      string      `json:"workload"`
	Seed          int64       `json:"seed"`
	Trace         bool        `json:"trace"`
	Inputs        inputsStamp `json:"inputs"`
}

// inputsStamp summarizes the cached inputs (the ledger file keeps the
// full manifest).
type inputsStamp struct {
	Dataset      string    `json:"dataset"`
	Files        int       `json:"files"`
	Packets      int64     `json:"packets"`
	Bytes        int64     `json:"bytes"`
	WindowOrigin time.Time `json:"window_origin"`
	SynthSeconds float64   `json:"synth_seconds"`
}

// The benchmark runs from the repository root: it reads its declaration
// there and keeps inputs and ledgers under the build directory.
const (
	specFile = "BENCHMARK.json"
	cacheDir = ".bench_build/perfbench"
)

func nproc() int { return runtime.NumCPU() }

// load1 is the 1-minute load average.
func load1() float64 {
	var si syscall.Sysinfo_t
	if err := syscall.Sysinfo(&si); err != nil {
		return -1
	}
	return float64(si.Loads[0]) / 65536 // fixed point, 16 fractional bits
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "campaign-d3, headers-d1 or fleet-window")
	seed := flag.Int64("seed", 0, "input seed, written into enterprise.Config.Seed (default: the dataset's own)")
	seconds := flag.Int("seconds", 10, "how long the timed passes run")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer ledger")
	flag.Parse()

	var wl workload
	for _, w := range workloads {
		if w.name == *name {
			wl = w
		}
	}
	if wl.name == "" {
		return fmt.Errorf("unknown -workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be ≥ 1 and -trace 0 or 1")
	}
	seedSet := false
	flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	if !seedSet {
		*seed = wl.dataset().Seed
	}

	runtime.GOMAXPROCS(nproc())
	env := envStamp{
		NumCPU: nproc(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: nproc(), ReplayWorkers: nproc(),
		GoVersion: runtime.Version(), Network: "loopback", Load1Start: load1(),
		Workload: wl.name, Seed: *seed, Trace: *trace == 1,
	}

	m, err := loadInputs(cacheDir, wl, *seed)
	if err != nil {
		return fmt.Errorf("inputs: %w", err)
	}
	env.Inputs = inputsStamp{m.Dataset, len(m.Files), m.Packets, m.Bytes, m.WindowOrigin, m.SynthSeconds}
	if err := warm(m); err != nil {
		return err
	}
	b := &bench{wl: wl, m: m, seconds: time.Duration(*seconds) * time.Second, workers: nproc()}
	var metrics map[string]metric
	if *trace == 1 {
		metrics, err = b.traced()
	} else {
		metrics, err = b.endToEnd()
	}
	if err != nil {
		return err
	}
	env.Load1End = load1()

	envLine, _ := json.Marshal(env)
	fmt.Printf("env: %s\n", envLine)
	if err := b.writeLedger(cacheDir, env, metrics); err != nil {
		return err
	}
	b.printTable(metrics)
	declared, err := declaredMetrics(specFile, *trace == 1, metrics)
	if err != nil {
		return err
	}
	out, err := json.Marshal(result{
		Correct:   b.ops.failed == 0,
		Attempted: b.ops.attempted,
		Failed:    b.ops.failed,
		Metrics:   declared,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// declaredMetrics picks the metrics BENCHMARK.json declares for the run
// kind (end_to_end untraced, per_layer traced) for the result line. Every
// declared metric must have been measured, in the declared unit; the
// workload-specific rest is printed and kept in the ledger only.
func declaredMetrics(path string, traced bool, measured map[string]metric) (map[string]metric, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	out := make(map[string]metric, len(want))
	for _, d := range want {
		m, ok := measured[d.Name]
		if !ok || m.Unit != d.Unit {
			return nil, fmt.Errorf("%s declares %s in %s; measured %+v", path, d.Name, d.Unit, m)
		}
		out[d.Name] = m
	}
	return out, nil
}

// warm reads every input once so the timed passes see page-cached files.
func warm(m *manifest) error {
	buf := make([]byte, 1<<20)
	for _, f := range m.Files {
		fd, err := os.Open(f.path)
		if err != nil {
			return err
		}
		for err == nil {
			_, err = fd.Read(buf)
		}
		fd.Close()
		if err != io.EOF {
			return fmt.Errorf("warming %s: %w", f.path, err)
		}
	}
	return nil
}
