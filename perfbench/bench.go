package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/enterprise"
)

// bench runs one workload.
type bench struct {
	wl      workload
	m       *manifest
	seconds time.Duration
	workers int
	ops     tally
	// tr is nil in the end-to-end run, so its passes record no spans.
	tr *tracer

	// Batch reference: the run JSON of a Workers=1, ReplayWorkers=1 run.
	refRun []byte
	// Fleet reference: a single windowed instance's final cumulative and
	// per-window reports.
	refFinal []byte
	refWins  [][]byte
	// lastExports are the latest fleet pass's canonical delta payloads,
	// the frames the codec is timed on.
	lastExports [][]byte

	// checks are the traced run's ledger reconciliation verdicts.
	checks []check
	// passes records every timed pass for the ledger file.
	passes []passRecord
}

// passRecord is one timed pass as the ledger file keeps it.
type passRecord struct {
	Traced   bool    `json:"traced"`
	SetupMS  float64 `json:"setup_ms"`
	WallMS   float64 `json:"wall_ms"`
	IngestMS float64 `json:"ingest_ms"`
	Converge float64 `json:"converge_ms"`
	Packets  int64   `json:"packets"`
	PeakHeap uint64  `json:"peak_heap_bytes"`
	MeanHeap float64 `json:"mean_heap_bytes"`
	GCCycles uint64  `json:"gc_cycles"`
	Queries  int     `json:"queries,omitempty"`
}

// check is one ledger reconciliation verdict.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note"`
}

func (b *bench) check(ok bool, name, format string, args ...any) {
	c := check{Name: name, OK: ok, Note: fmt.Sprintf(format, args...)}
	b.checks = append(b.checks, c)
	b.ops.add(ok, "ledger check %s: %s", name, c.Note)
}

// pass is what one timed pass measured.
type pass struct {
	// setup runs from the first constructor call until every file is
	// open (and, for the fleet, the aggregator listens).
	setup time.Duration
	// wall runs from the first source open to the final report bytes.
	wall time.Duration
	// converge runs from the end of input (the last site's Fin for the
	// fleet) to the final report bytes.
	converge time.Duration
	pkts     int64
	peakHeap uint64
	meanHeap float64
	rt       runtimeStats
	// ingest sums the pass's AddTraceReader calls.
	ingest time.Duration

	// fleet-window only.
	queries, late, handler []float64 // ms
	apply                  []float64 // µs
	shipToApply            []float64 // ms
	shipped, acked         int64
	resends, reconnects    int64
}

func (p pass) pktsPerSec() float64 { return float64(p.pkts) / p.wall.Seconds() }

// options is the analyzer configuration every pass shares.
func (b *bench) options(workers int, payload bool, window time.Duration, base int) core.Options {
	o := core.Options{
		Dataset:         b.m.Dataset,
		KnownScanners:   enterprise.KnownScanners(),
		PayloadAnalysis: payload,
		Workers:         workers,
		ReplayWorkers:   workers,
	}
	if window > 0 {
		o.Window = window
		o.WindowOrigin = b.m.WindowOrigin
		o.TraceBase = base
	}
	return o
}

func openAll(files []traceFile) ([]*os.File, error) {
	fds := make([]*os.File, 0, len(files))
	for _, f := range files {
		fd, err := os.Open(f.path)
		if err != nil {
			closeAll(fds)
			return nil, err
		}
		fds = append(fds, fd)
	}
	return fds, nil
}

// closeAll closes read-only files; a second Close of one is harmless.
func closeAll(fds []*os.File) {
	for _, fd := range fds {
		fd.Close()
	}
}

// ingest streams each file into a through the default AddTraceReader
// file path, one span per trace, and returns the summed call time.
func (b *bench) ingest(a *core.Analyzer, files []traceFile, fds []*os.File, t *tracer, parent int) time.Duration {
	var total time.Duration
	for i, f := range files {
		sp := t.begin("core.AddTraceReader", parent)
		start := time.Now()
		err := a.AddTraceReader(f.Name, f.prefix, fds[i])
		total += time.Since(start)
		t.end(sp)
		fds[i].Close()
		b.ops.add(err == nil, "ingest %s: %v", f.Name, err)
	}
	return total
}

// timedPasses repeats pass until the run's time is spent (at least
// minPasses times). In the traced run, traced and untraced passes
// alternate so the tracing overhead is measured on the same inputs.
func (b *bench) timedPasses(alternate bool) (untraced, traced []pass, err error) {
	const minPasses = 3
	deadline := time.Now().Add(b.seconds)
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		var t *tracer
		if alternate && i%2 == 1 {
			t = b.tr
			t.startRun("timed")
		}
		runtime.GC()
		var p pass
		if b.wl.fleet {
			p, err = b.fleetPass(t)
		} else {
			p, err = b.batchPass(t)
		}
		if err != nil {
			return nil, nil, err
		}
		b.passes = append(b.passes, passRecord{
			Traced: t != nil, SetupMS: ms(p.setup), WallMS: ms(p.wall), IngestMS: ms(p.ingest), Converge: ms(p.converge),
			Packets: p.pkts, PeakHeap: p.peakHeap, MeanHeap: p.meanHeap, GCCycles: p.rt.gcCycles, Queries: len(p.queries),
		})
		if t != nil {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	return untraced, traced, nil
}

// batchSetup builds the analyzer and opens the traces: the program's
// set-up before its first timed operation.
func (b *bench) batchSetup(opts core.Options) (*core.Analyzer, []*os.File, time.Duration, error) {
	start := time.Now()
	a := core.NewAnalyzer(opts)
	fds, err := openAll(b.m.Files)
	return a, fds, time.Since(start), err
}

// batchPass analyzes every trace into one analyzer and renders the
// cumulative run JSON, checking it against the reference.
func (b *bench) batchPass(t *tracer) (pass, error) {
	a, fds, setup, err := b.batchSetup(b.options(b.workers, b.wl.payload, 0, 0))
	if err != nil {
		return pass{}, err
	}
	defer closeAll(fds)
	rt0 := readRuntime()
	smp := startSampler(nil)
	start := time.Now()
	root := t.begin("pass", -1)
	ingest := b.ingest(a, b.m.Files, fds, t, root)
	inputEnd := time.Now()
	sp := t.begin("core.Report", root)
	rep := a.Report()
	t.end(sp)
	sp = t.begin("core.WriteRunJSON", root)
	var out bytes.Buffer
	err = core.WriteRunJSON(&out, a.WindowReports(), rep)
	t.end(sp)
	end := time.Now()
	t.end(root)
	smp.finish()
	p := pass{
		setup: setup, wall: end.Sub(start), converge: end.Sub(inputEnd),
		pkts: a.PacketsSeen(), peakHeap: smp.peakHeap, meanHeap: smp.meanHeap(), rt: readRuntime().sub(rt0), ingest: ingest,
	}
	b.checkBatch(a, rep, out.Bytes(), err)
	return p, nil
}

// checkBatch is one report reference check: the run JSON must equal the
// reference byte for byte, and the packet counts must agree end to end.
func (b *bench) checkBatch(a *core.Analyzer, rep *core.Report, out []byte, err error) {
	b.ops.add(err == nil && bytes.Equal(out, b.refRun) && a.PacketsSeen() == b.m.Packets && rep.Table1.Packets == b.m.Packets,
		"report check: err=%v, %d bytes vs reference %d (equal=%v), packets seen %d / Table 1 %d / files %d",
		err, len(out), len(b.refRun), bytes.Equal(out, b.refRun), a.PacketsSeen(), rep.Table1.Packets, b.m.Packets)
}

// batchReference runs the determinism reference at one worker, recording
// its ingest spans as the traced run's single-threaded baseline.
func (b *bench) batchReference() error {
	b.tr.startRun("one-worker")
	a, fds, _, err := b.batchSetup(b.options(1, b.wl.payload, 0, 0))
	if err != nil {
		return err
	}
	defer closeAll(fds)
	root := b.tr.begin("pass", -1)
	b.ingest(a, b.m.Files, fds, b.tr, root)
	var out bytes.Buffer
	err = core.WriteRunJSON(&out, a.WindowReports(), a.Report())
	b.tr.end(root)
	if err != nil {
		return fmt.Errorf("reference run JSON: %w", err)
	}
	b.refRun = out.Bytes()
	return nil
}

// extraSetups times set-up alone a few more times, so setup_s is a
// median of many samples rather than of the few passes.
func (b *bench) extraSetups(n int) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < n; i++ {
		runtime.GC()
		var d time.Duration
		var err error
		if b.wl.fleet {
			var fp *fleetPassState
			if fp, err = b.fleetSetup(nil, b.fleetOptions(b.workers)); err == nil {
				d = fp.setup
				err = fp.teardown()
			}
		} else {
			var fds []*os.File
			_, fds, d, err = b.batchSetup(b.options(b.workers, b.wl.payload, 0, 0))
			closeAll(fds)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}
