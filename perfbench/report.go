package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"enttrace/internal/core"
)

const (
	// setupReps are the set-ups timed on their own, on top of one per
	// pass, so setup_s is a median of many samples.
	setupReps = 40
	// residualTolerance is the share of pass wall time the ledger may
	// leave unaccounted for.
	residualTolerance = 0.02
)

func (b *bench) reference() error {
	if b.wl.fleet {
		return b.fleetReference()
	}
	return b.batchReference()
}

// endToEnd is the untraced run: the reference, the set-up samples, then
// timed passes for the run's duration.
func (b *bench) endToEnd() (map[string]metric, error) {
	if err := b.reference(); err != nil {
		return nil, err
	}
	setups, err := b.extraSetups(setupReps)
	if err != nil {
		return nil, err
	}
	passes, _, err := b.timedPasses(false)
	if err != nil {
		return nil, err
	}
	var pps, heap, conv []float64
	var queries []float64
	for _, p := range passes {
		setups = append(setups, p.setup)
		pps = append(pps, p.pktsPerSec())
		heap = append(heap, p.meanHeap/1e6)
		conv = append(conv, p.converge.Seconds())
		queries = append(queries, p.queries...)
	}
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	m := map[string]metric{
		"setup_s":      {median(secs), "s"},
		"pkts_per_s":   {median(pps), "pkts/s"},
		"mean_heap_mb": {median(heap), "MB"},
	}
	if b.wl.fleet {
		m["converge_s"] = metric{median(conv), "s"}
		m["query_p50_ms"] = metric{quantile(queries, 0.5), "ms"}
		m["query_p90_ms"] = metric{quantile(queries, 0.9), "ms"}
		fmt.Printf("queries: %d over %d passes\n", len(queries), len(passes))
	}
	return m, nil
}

// traced is the ledger run: the reference doubles as the one-worker
// baseline, traced and untraced passes alternate, and the extra passes
// isolate each layer by difference.
func (b *bench) traced() (map[string]metric, error) {
	b.tr = newTracer()
	t := b.tr
	if err := b.reference(); err != nil {
		return nil, err
	}
	untraced, traced, err := b.timedPasses(true)
	if err != nil {
		return nil, err
	}
	pkts := float64(b.m.Packets)
	nsPerPkt := func(ms float64) float64 { return ms * 1e6 / pkts }

	// The by-difference passes: the layers below the analyzer alone, then
	// full ingests with one setting toggled — payload analysis, and the
	// windowing the workload does not do (the fleet's sites window, so it
	// turns windowing off, with payload analysis on and off).
	var readPkts, undecodable, conns, livePeak int64
	var windowed *core.Analyzer
	kinds := []func() (time.Duration, error){
		func() (d time.Duration, err error) { d, readPkts, _, err = b.readPass(false); return },
		func() (d time.Duration, err error) { d, _, undecodable, err = b.readPass(true); return },
		func() (d time.Duration, err error) { d, conns, livePeak, err = b.flowPass("flow", b.workers); return },
		func() (d time.Duration, err error) { d, _, _, err = b.flowPass("flow-one-worker", 1); return },
	}
	if b.wl.fleet {
		kinds = append(kinds,
			func() (d time.Duration, err error) {
				d, _, err = b.altIngest("window-0", b.options(b.workers, true, 0, 0))
				return
			},
			func() (d time.Duration, err error) {
				d, _, err = b.altIngest("payload-off", b.options(b.workers, false, 0, 0))
				return
			})
	} else {
		kinds = append(kinds,
			func() (d time.Duration, err error) {
				d, _, err = b.altIngest("payload-toggled", b.options(b.workers, !b.wl.payload, 0, 0))
				return
			},
			func() (d time.Duration, err error) {
				d, windowed, err = b.altIngest("windowed", b.options(b.workers, b.wl.payload, fleetWindow, 0))
				return
			})
	}
	med, err := medianRounds(kinds)
	if err != nil {
		return nil, err
	}
	read, decode, flowN, flow1 := med[0], med[1], med[2], med[3]

	ingest := median(t.perRun("timed", "core.AddTraceReader"))
	oneWorker := sum(t.durations("one-worker", "core.AddTraceReader"))
	traceMS := t.durations("timed", "core.AddTraceReader")
	m := map[string]metric{
		"pcap.read_ns_per_pkt":      {nsPerPkt(read), "ns"},
		"pcap.read_mb_per_s":        {float64(b.m.Bytes) / 1e3 / read, "MB/s"},
		"layers.decode_ns_per_pkt":  {nsPerPkt(decode - read), "ns"},
		"layers.undecodable":        {float64(undecodable), "count"},
		"pipeline.route_ns_per_pkt": {nsPerPkt(flowN - decode), "ns"},
		"pipeline.speedup":          {flow1 / flowN, "x"},
		"flows.conns":               {float64(conns), "count"},
		"flows.live_peak":           {float64(livePeak), "count"},
		"core.trace_ms.p50":         {quantile(traceMS, 0.5), "ms"},
		"core.trace_ms.p90":         {quantile(traceMS, 0.9), "ms"},
		"core.analysis_ns_per_pkt":  {nsPerPkt(ingest - flowN), "ns"},
		"core.speedup":              {oneWorker / ingest, "x"},
	}

	if b.wl.fleet {
		if err := b.fleetLayers(m, traced, ingest, med[4], med[5]); err != nil {
			return nil, err
		}
	} else if err := b.batchLayers(m, ingest, med[4], med[5], windowed); err != nil {
		return nil, err
	}

	// Runtime counters come from the untraced passes, which carry no
	// span bookkeeping.
	var allocs, allocBytes, gcs, util, peak []float64
	for _, p := range untraced {
		peak = append(peak, float64(p.peakHeap)/1e6)
		allocs = append(allocs, float64(p.rt.allocs)/float64(p.pkts))
		allocBytes = append(allocBytes, float64(p.rt.allocBytes)/float64(p.pkts))
		gcs = append(gcs, float64(p.rt.gcCycles))
		util = append(util, p.rt.cpu.Seconds()/(p.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	}
	m["runtime.allocs_per_pkt"] = metric{median(allocs), "allocs/pkt"}
	m["runtime.alloc_bytes_per_pkt"] = metric{median(allocBytes), "B/pkt"}
	m["runtime.gc_cycles"] = metric{median(gcs), "count"}
	m["runtime.cpu_util"] = metric{median(util), "ratio"}
	m["runtime.peak_heap_mb"] = metric{median(peak), "MB"}
	m["bench.trace_overhead"] = metric{medianPPS(traced) / medianPPS(untraced), "ratio"}
	gap, wall := t.residual("timed", "pass")
	m["bench.layer_residual"] = metric{gap / wall, "ratio"}

	// Ledger reconciliation: the top-level spans account for the pass
	// wall time, and every layer saw every packet.
	b.check(gap/wall <= residualTolerance, "layer_residual",
		"%.3f ms of %.1f ms traced pass wall outside top-level spans (tolerance %.0f%%)", gap, wall, residualTolerance*100)
	b.check(readPkts == b.m.Packets, "packets",
		"files %d = pcap layer %d = Analyzer.PacketsSeen = report Table 1 (the last two checked every pass)", b.m.Packets, readPkts)
	return m, nil
}

// batchLayers adds the payload and epoch differences for a batch
// workload: ingest is the timed passes' trace time, toggled the payload
// toggled ingest's and win the windowed ingest's (all in ms); a is the
// last windowed analyzer, whose windows are exported one by one.
func (b *bench) batchLayers(m map[string]metric, ingest, toggled, win float64, a *core.Analyzer) error {
	pkts := float64(b.m.Packets)
	payload := ingest - toggled
	if !b.wl.payload {
		payload = -payload
	}
	m["appproto.payload_ns_per_pkt"] = metric{payload * 1e6 / pkts, "ns"}
	exports, times, err := b.exportEach(a)
	if err != nil {
		return err
	}
	size := 0
	for _, we := range exports {
		size += len(we.Payload)
	}
	m["epoch.windowed_ns_per_pkt"] = metric{(win - ingest) * 1e6 / pkts, "ns"}
	m["epoch.windows"] = metric{float64(a.WindowCount()), "count"}
	m["epoch.export_ms.p50"] = metric{quantile(times, 0.5), "ms"}
	m["epoch.export_ms.p90"] = metric{quantile(times, 0.9), "ms"}
	m["epoch.export_kb"] = metric{float64(size) / 1024, "KB"}
	if err := b.oneSiteFleet(m, a, exports); err != nil {
		return err
	}
	m["core.report_ms"] = metric{median(b.tr.durations("timed", "core.Report")), "ms"}
	m["core.marshal_ms"] = metric{median(b.tr.durations("timed", "core.WriteRunJSON")), "ms"}
	return nil
}

// fleetLayers adds the epoch, fleet and serve layers for fleet-window:
// ingest is the timed passes' site trace time, batchOn and batchOff the
// unwindowed ingests' with payload analysis on and off (all in ms).
func (b *bench) fleetLayers(m map[string]metric, traced []pass, ingest, batchOn, batchOff float64) error {
	pkts := float64(b.m.Packets)
	t := b.tr
	m["appproto.payload_ns_per_pkt"] = metric{(batchOn - batchOff) * 1e6 / pkts, "ns"}
	m["epoch.windowed_ns_per_pkt"] = metric{(ingest - batchOn) * 1e6 / pkts, "ns"}
	m["epoch.windows"] = metric{float64(len(b.refWins)), "count"}
	exports := t.durations("timed", "core.ExportWindow")
	m["epoch.export_ms.p50"] = metric{quantile(exports, 0.5), "ms"}
	m["epoch.export_ms.p90"] = metric{quantile(exports, 0.9), "ms"}
	size := 0
	for _, p := range b.lastExports {
		size += len(p)
	}
	m["epoch.export_kb"] = metric{float64(size) / 1024, "KB"}
	m["core.report_ms"] = metric{median(t.durations("one-worker", "core.Report")), "ms"}
	m["core.marshal_ms"] = metric{median(t.durations("timed", "core.MarshalReport")), "ms"}

	enc, dec, err := codecTimes(b.lastExports)
	if err != nil {
		return err
	}
	var apply, s2a, handler, late, shipped, acked, resends, reconnects []float64
	for _, p := range traced {
		apply = append(apply, p.apply...)
		s2a = append(s2a, p.shipToApply...)
		handler = append(handler, p.handler...)
		late = append(late, p.late...)
		shipped = append(shipped, float64(p.shipped))
		acked = append(acked, float64(p.acked))
		resends = append(resends, float64(p.resends))
		reconnects = append(reconnects, float64(p.reconnects))
		b.check(p.acked == p.shipped && p.resends == 0, "delivery",
			"%d frames shipped, %d acked, %d resent, %d reconnects on loopback", p.shipped, p.acked, p.resends, p.reconnects)
	}
	m["fleet.encode_us"] = metric{enc, "us"}
	m["fleet.decode_us"] = metric{dec, "us"}
	m["fleet.apply_us"] = metric{median(apply), "us"}
	m["fleet.ship_to_apply_ms.p50"] = metric{quantile(s2a, 0.5), "ms"}
	m["fleet.ship_to_apply_ms.p90"] = metric{quantile(s2a, 0.9), "ms"}
	m["fleet.report_ms"] = metric{median(t.durations("timed", "fleet.Report")), "ms"}
	m["fleet.shipped"] = metric{median(shipped), "count"}
	m["fleet.acked"] = metric{median(acked), "count"}
	m["fleet.resends"] = metric{median(resends), "count"}
	m["fleet.reconnects"] = metric{median(reconnects), "count"}
	m["serve.handler_ms.p50"] = metric{quantile(handler, 0.5), "ms"}
	m["serve.handler_ms.p90"] = metric{quantile(handler, 0.9), "ms"}
	lateP90 := quantile(late, 0.9)
	m["serve.poller_late_ms"] = metric{lateP90, "ms"}
	b.check(lateP90 < float64(queryPeriod)/1e6, "poller_schedule",
		"p90 dispatch lateness %.2f ms against a %v schedule over %d queries", lateP90, queryPeriod, len(late))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// extraRounds is how many times each by-difference pass runs. The kinds
// take turns, so slow drift on the host does not favour one of them.
const extraRounds = 3

// medianRounds runs every pass extraRounds times, round-robin, and
// returns each pass's median time in ms.
func medianRounds(passes []func() (time.Duration, error)) ([]float64, error) {
	times := make([][]float64, len(passes))
	for r := 0; r < extraRounds; r++ {
		for i, pass := range passes {
			d, err := pass()
			if err != nil {
				return nil, err
			}
			times[i] = append(times[i], ms(d))
		}
	}
	out := make([]float64, len(passes))
	for i, ts := range times {
		out[i] = median(ts)
	}
	return out, nil
}

func medianPPS(ps []pass) float64 {
	var xs []float64
	for _, p := range ps {
		xs = append(xs, p.pktsPerSec())
	}
	return median(xs)
}

// writeLedger writes the run's full record — environment, metrics,
// checks, per-span self times and the spans — next to the inputs.
func (b *bench) writeLedger(root string, env envStamp, metrics map[string]metric) error {
	dir := filepath.Join(root, "ledger")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Env     envStamp           `json:"env"`
		Inputs  *manifest          `json:"inputs"`
		Metrics map[string]metric  `json:"metrics"`
		Checks  []check            `json:"checks,omitempty"`
		Passes  []passRecord       `json:"passes"`
		SelfMS  map[string]float64 `json:"self_ms,omitempty"`
		Spans   []span             `json:"spans,omitempty"`
	}{Env: env, Inputs: b.m, Metrics: metrics, Checks: b.checks, Passes: b.passes}
	if b.tr != nil {
		doc.SelfMS = b.tr.selfTimes()
		doc.Spans = b.tr.spans
	}
	out, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	trace := 0
	if env.Trace {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", env.Workload, env.Seed, trace)), out, 0o644)
}

// printTable prints every metric by name with its unit, and the failed
// ratio, ahead of the result line.
func (b *bench) printTable(metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-30s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Printf("%-30s %16.6g ratio (%d of %d operations failed)\n", "failed_ratio",
		float64(b.ops.failed)/float64(b.ops.attempted), b.ops.failed, b.ops.attempted)
	for _, c := range b.checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Printf("check %-16s %-6s %s\n", c.Name, verdict, c.Note)
	}
}
