package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/fleet"
	"enttrace/internal/flows"
	"enttrace/internal/layers"
	"enttrace/internal/pcap"
	"enttrace/internal/pipeline"
)

// The traced run's extra passes. Each isolates one layer by difference:
// read alone, read+decode, the flow-only pipeline, and full ingests with
// one setting toggled. They run only in the traced run.

// readPass drains every input through the pooled pcap reader the
// analyzer uses, decoding each packet when decode is set. It returns the
// drain time, the packets read and those layers.Decode rejected.
func (b *bench) readPass(decode bool) (time.Duration, int64, int64, error) {
	phase, name := "read", "pcap.read"
	if decode {
		phase, name = "decode", "layers.decode"
	}
	t := b.tr
	t.startRun(phase)
	root := t.begin("pass", -1)
	defer t.end(root)
	pool := pcap.NewPool()
	var total time.Duration
	var n, undecodable int64
	var lp layers.Packet
	for _, f := range b.m.Files {
		fd, err := os.Open(f.path)
		if err != nil {
			return 0, 0, 0, err
		}
		sp := t.begin(name, root)
		start := time.Now()
		rd, err := pcap.NewReader(fd)
		if err != nil {
			fd.Close()
			return 0, 0, 0, err
		}
		src := pcap.NewPooledReader(rd, pool)
		for {
			pk, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				fd.Close()
				return 0, 0, 0, err
			}
			n++
			if decode && layers.Decode(pk.Data, pk.OrigLen, &lp) != nil {
				undecodable++
			}
			src.Release(pk)
		}
		total += time.Since(start)
		t.end(sp)
		fd.Close()
	}
	return total, n, undecodable, nil
}

// flowPass runs the flow-only pipeline (decode, routing, flow tables; no
// analysis sink) over every input at the given worker count. It returns
// the run time, the connections tracked and the live-table peak.
func (b *bench) flowPass(phase string, workers int) (time.Duration, int64, int64, error) {
	t := b.tr
	t.startRun(phase)
	root := t.begin("pass", -1)
	defer t.end(root)
	pool := pcap.NewPool()
	var live atomic.Int64
	smp := startSampler(live.Load)
	defer smp.finish()
	var total time.Duration
	var conns int64
	for _, f := range b.m.Files {
		fd, err := os.Open(f.path)
		if err != nil {
			return 0, 0, 0, err
		}
		sp := t.begin("pipeline.Run", root)
		start := time.Now()
		rd, err := pcap.NewReader(fd)
		var res *pipeline.Result
		if err == nil {
			res, err = pipeline.Run(pcap.NewPooledReader(rd, pool), pipeline.Config{
				Workers: workers,
				Flows:   flows.Config{LiveGauge: &live},
			})
		}
		total += time.Since(start)
		t.end(sp)
		fd.Close()
		if err != nil {
			return 0, 0, 0, err
		}
		for _, sh := range res.Shards {
			conns += int64(len(sh.Conns))
		}
	}
	smp.finish()
	return total, conns, smp.peakLive, nil
}

// altIngest analyzes every trace once with opts, without shipping, and
// returns the summed AddTraceReader time and the analyzer.
func (b *bench) altIngest(phase string, opts core.Options) (time.Duration, *core.Analyzer, error) {
	t := b.tr
	t.startRun(phase)
	a := core.NewAnalyzer(opts)
	fds, err := openAll(b.m.Files)
	if err != nil {
		return 0, nil, err
	}
	defer closeAll(fds)
	root := t.begin("pass", -1)
	d := b.ingest(a, b.m.Files, fds, t, root)
	t.end(root)
	return d, a, nil
}

// exportEach times ExportWindow on every window of a windowed analyzer,
// returning the exports and the per-call times in ms.
func (b *bench) exportEach(a *core.Analyzer) ([]core.WindowExport, []float64, error) {
	t := b.tr
	root := t.begin("export-each", -1)
	defer t.end(root)
	var exports []core.WindowExport
	var times []float64
	for n := 0; n < a.WindowCount(); n++ {
		sp := t.begin("core.ExportWindow", root)
		start := time.Now()
		we, err := a.ExportWindow(n)
		times = append(times, ms(time.Since(start)))
		t.end(sp)
		if err != nil {
			return nil, nil, err
		}
		exports = append(exports, we)
	}
	return exports, times, nil
}

// serveQueries is how many /report/latest queries the one-site fleet
// answers, one after the other.
const serveQueries = 200

// oneSiteFleet folds a windowed analyzer's exports into an in-core fleet
// of one site and queries its report server: the fleet codec, fold and
// serve layers on a batch workload's own snapshots. The fleet's
// cumulative and window reports must equal the analyzer's.
func (b *bench) oneSiteFleet(m map[string]metric, a *core.Analyzer, exports []core.WindowExport) error {
	t := b.tr
	root := t.begin("one-site-fleet", -1)
	defer t.end(root)
	site := fleetSites[0]
	f := core.NewFleet(core.FleetConfig{Dataset: b.m.Dataset})
	if err := f.Hello(site, a.FleetHello()); err != nil {
		return err
	}
	var apply []float64
	var payloads [][]byte
	var watermark int64
	for i, we := range exports {
		sp := t.begin("fleet.Delta", root)
		start := time.Now()
		err := f.Delta(site, we.Window, uint64(i+1), we.Watermark, we.Payload)
		apply = append(apply, float64(time.Since(start))/1e3)
		t.end(sp)
		b.ops.add(err == nil, "one-site fleet delta for window %d: %v", we.Window, err)
		payloads = append(payloads, we.Payload)
		watermark = we.Watermark
	}
	if err := f.Fin(site, len(exports)-1, uint64(len(exports)+1), watermark); err != nil {
		return err
	}
	sp := t.begin("fleet.Report", root)
	start := time.Now()
	rep := f.Report()
	reportMS := ms(time.Since(start))
	t.end(sp)
	b.checkSameReports("one-site fleet", rep, a.Report(), f.WindowReports(), a.WindowReports())

	srv := core.NewFleetServer(f)
	var handler []float64
	for i := 0; i < serveQueries; i++ {
		rec := httptest.NewRecorder()
		sp := t.begin("serve.ServeHTTP", root)
		start := time.Now()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/report/latest", nil))
		handler = append(handler, ms(time.Since(start)))
		t.end(sp)
		b.ops.add(rec.Code == http.StatusOK && json.Valid(rec.Body.Bytes()), "one-site fleet query answered %d", rec.Code)
	}
	enc, dec, err := codecTimes(payloads)
	if err != nil {
		return err
	}
	m["fleet.encode_us"] = metric{enc, "us"}
	m["fleet.decode_us"] = metric{dec, "us"}
	m["fleet.apply_us"] = metric{median(apply), "us"}
	m["fleet.report_ms"] = metric{reportMS, "ms"}
	m["serve.handler_ms.p50"] = metric{quantile(handler, 0.5), "ms"}
	m["serve.handler_ms.p90"] = metric{quantile(handler, 0.9), "ms"}
	return nil
}

// codecTimes frames and unframes each canonical delta payload through the
// fleet wire codec, returning the median per-frame times in µs.
func codecTimes(payloads [][]byte) (enc, dec float64, err error) {
	var encs, decs []float64
	for i, p := range payloads {
		f := &fleet.Frame{Type: fleet.FrameDelta, Site: fleetSites[0], Window: i, Seq: uint64(i + 1), Payload: p}
		start := time.Now()
		wire, err := fleet.EncodeFrame(f)
		mid := time.Now()
		if err != nil {
			return 0, 0, err
		}
		if _, _, err := fleet.DecodeFrame(wire); err != nil {
			return 0, 0, err
		}
		encs = append(encs, float64(mid.Sub(start))/1e3)
		decs = append(decs, float64(time.Since(mid))/1e3)
	}
	return median(encs), median(decs), nil
}
