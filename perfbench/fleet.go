package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/fleet"
)

const (
	// fleetWindow is the sites' analysis window.
	fleetWindow = time.Minute
	// queryPeriod is the open-loop poller's schedule: 50 queries/s.
	queryPeriod = 20 * time.Millisecond
	// finalTimeout bounds the wait for the fleet to converge; a fleet
	// that misses it fails the pass.
	finalTimeout = 60 * time.Second
)

var fleetSites = []string{"site-a", "site-b"}

// fleetSite is one fleet member: its share of the traces, its windowed
// analyzer and its shipper.
type fleetSite struct {
	name  string
	files []traceFile
	fds   []*os.File
	a     *core.Analyzer
	sh    *fleet.Shipper
	// cur is the span of the AddTraceReader call in flight, the parent
	// of the OnWindow exports it triggers.
	cur    int
	deltas int64
	// exports are the canonical re-export payloads (ExportAll).
	exports [][]byte
}

// fleetPassState is one pass's fleet: aggregator, server and sites.
type fleetPassState struct {
	b      *bench
	t      *tracer
	setup  time.Duration
	f      *core.Fleet
	sink   *timedSink
	agg    *fleet.Aggregator
	served chan struct{}
	srv    *core.FleetServer
	sites  []*fleetSite
	err    error // first export error; fails the pass's checks
}

// siteFiles splits the manifest's files by fleet site, in trace order.
func (b *bench) siteFiles(site string) []traceFile {
	var out []traceFile
	for _, f := range b.m.Files {
		if f.Site == site {
			out = append(out, f)
		}
	}
	return out
}

// fleetSetup starts the aggregator on loopback and builds both sites
// (analyzer, shipper, open traces): the fleet's set-up.
func (b *bench) fleetSetup(t *tracer, base func(site int) core.Options) (*fleetPassState, error) {
	start := time.Now()
	f := core.NewFleet(core.FleetConfig{Dataset: b.m.Dataset, ExpectSites: fleetSites})
	fp := &fleetPassState{b: b, t: t, f: f, sink: newTimedSink(f, t), served: make(chan struct{}), srv: core.NewFleetServer(f)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fp.agg = fleet.NewAggregator(ln, fp.sink, nil)
	go func() {
		defer close(fp.served)
		fp.agg.Serve()
	}()
	for i, name := range fleetSites {
		s := &fleetSite{name: name, files: b.siteFiles(name), cur: -1}
		fp.sites = append(fp.sites, s)
		opts := base(i)
		opts.OnWindow = func(wr *core.WindowReport) { fp.shipWindow(s, wr.Index) }
		s.a = core.NewAnalyzer(opts)
		if s.sh, err = fleet.NewShipper(fleet.ShipperConfig{Addr: ln.Addr().String(), Site: name, Hello: s.a.FleetHello()}); err != nil {
			fp.teardown()
			return nil, err
		}
		if s.fds, err = openAll(s.files); err != nil {
			fp.teardown()
			return nil, err
		}
	}
	fp.setup = time.Since(start)
	return fp, nil
}

// fleetOptions is the windowed site configuration: a shared origin, and
// trace ordinals continuing across sites.
func (b *bench) fleetOptions(workers int) func(site int) core.Options {
	return func(site int) core.Options {
		base := 0
		for _, name := range fleetSites[:site] {
			base += len(b.siteFiles(name))
		}
		return b.options(workers, b.wl.payload, fleetWindow, base)
	}
}

// teardown drains the shippers, stops the aggregator and closes files.
// It returns the first shipper error.
func (fp *fleetPassState) teardown() error {
	var err error
	for _, s := range fp.sites {
		if s.sh != nil {
			if cerr := s.sh.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("site %s: %w", s.name, cerr)
			}
		}
		closeAll(s.fds)
	}
	fp.agg.Close()
	<-fp.served
	return err
}

// shipWindow is the sites' OnWindow hook, as entanalyze -ship does it:
// export the completed window and ship it as a provisional delta.
func (fp *fleetPassState) shipWindow(s *fleetSite, n int) {
	sp := fp.t.begin("core.ExportWindow", s.cur)
	we, err := s.a.ExportWindow(n)
	fp.t.end(sp)
	if err != nil {
		fp.fail(fmt.Errorf("site %s export window %d: %w", s.name, n, err))
		return
	}
	fp.ship(s, we, s.cur)
}

func (fp *fleetPassState) ship(s *fleetSite, we core.WindowExport, parent int) {
	fp.sink.noteShip(s.name, we.Window)
	sp := fp.t.begin("fleet.ShipDelta", parent)
	s.sh.ShipDelta(we.Window, we.Watermark, we.Payload)
	fp.t.end(sp)
	s.deltas++
}

func (fp *fleetPassState) fail(err error) {
	if fp.err == nil {
		fp.err = err
	}
}

// runSite analyzes the site's traces, re-exports its canonical deltas
// through ExportAll, ships them, and sends Fin.
func (fp *fleetPassState) runSite(s *fleetSite, root int, p *pass) {
	t, b := fp.t, fp.b
	site := t.begin("site.ingest", root)
	for i, f := range s.files {
		s.cur = t.begin("core.AddTraceReader", site)
		start := time.Now()
		err := s.a.AddTraceReader(f.Name, f.prefix, s.fds[i])
		p.ingest += time.Since(start)
		t.end(s.cur)
		s.fds[i].Close()
		b.ops.add(err == nil, "site %s ingest %s: %v", s.name, f.Name, err)
	}
	t.end(site)
	sp := t.begin("core.ExportAll", root)
	exports, err := s.a.ExportAll()
	t.end(sp)
	if err != nil {
		fp.fail(fmt.Errorf("site %s ExportAll: %w", s.name, err))
	}
	sp = t.begin("site.ship", root)
	maxWindow, watermark := -1, int64(0)
	for _, we := range exports {
		fp.ship(s, we, sp)
		s.exports = append(s.exports, we.Payload)
		maxWindow = max(maxWindow, we.Window)
		watermark = we.Watermark
	}
	t.end(sp)
	sp = t.begin("fleet.Fin", root)
	s.sh.Fin(maxWindow, watermark)
	t.end(sp)
}

// fleetPass runs both sites one after the other into a loopback
// aggregator while an open-loop poller queries /report/latest, then
// waits for the fleet to converge and renders its final report.
func (b *bench) fleetPass(t *tracer) (pass, error) {
	fp, err := b.fleetSetup(t, b.fleetOptions(b.workers))
	if err != nil {
		return pass{}, err
	}
	p := pass{setup: fp.setup}
	rt0 := readRuntime()
	smp := startSampler(nil)
	start := time.Now()
	root := t.begin("pass", -1)
	fp.sink.parent = root
	poll := startPoller(fp.srv, fp.sink.first, t, root)
	for _, s := range fp.sites {
		fp.runSite(s, root, &p)
	}
	finSent := time.Now()
	sp := t.begin("fleet.await_final", root)
	converged := false
	select {
	case <-fp.sink.final:
		converged = true
	case <-time.After(finalTimeout):
	}
	t.end(sp)
	var final []byte
	var rep *core.Report
	if converged {
		sp = t.begin("fleet.Report", root)
		rep = fp.f.Report()
		t.end(sp)
		sp = t.begin("core.MarshalReport", root)
		final, err = core.MarshalReport(rep)
		t.end(sp)
	}
	end := time.Now()
	t.end(root)
	smp.finish()
	poll.finish()
	p.rt = readRuntime().sub(rt0)
	p.wall, p.converge = end.Sub(start), end.Sub(finSent)
	p.peakHeap, p.meanHeap = smp.peakHeap, smp.meanHeap()
	p.queries, p.late, p.handler = poll.lat, poll.late, poll.handler
	b.ops.addN(poll.ok+poll.bad, poll.bad, "%d of %d queries not 200 with valid JSON", poll.bad, poll.ok+poll.bad)

	closeErr := fp.teardown()
	p.apply, p.shipToApply = fp.sink.apply, fp.sink.shipToApply
	for _, s := range fp.sites {
		p.pkts += s.a.PacketsSeen()
		st := s.sh.Stats()
		p.shipped += st.Shipped
		p.acked += st.Acked
		p.resends += st.Resends
		p.reconnects += st.Reconnects
		lost := max(s.deltas-fp.sink.appliedBy(s.name), st.Shipped-st.Acked)
		b.ops.addN(s.deltas, lost, "site %s: %d of %d deltas not acked and applied (%+v)", s.name, lost, s.deltas, st)
	}
	if !converged {
		fp.fail(errors.New("fleet did not reach FinalReady"))
	}
	if closeErr != nil {
		fp.fail(closeErr)
	}
	b.checkFleet(fp, rep, final, err, p.pkts)
	b.lastExports = append(fp.sites[0].exports, fp.sites[1].exports...)
	return p, nil
}

// checkFleet compares the fleet's final cumulative report and each of
// its window reports with the single-instance reference.
func (b *bench) checkFleet(fp *fleetPassState, rep *core.Report, final []byte, err error, pkts int64) {
	if err == nil {
		err = fp.err
	}
	table1 := int64(-1)
	if rep != nil {
		table1 = rep.Table1.Packets
	}
	b.ops.add(err == nil && bytes.Equal(final, b.refFinal) && pkts == b.m.Packets && table1 == b.m.Packets,
		"fleet final report: err=%v, %d bytes vs reference %d (equal=%v), packets seen %d / Table 1 %d / files %d",
		err, len(final), len(b.refFinal), bytes.Equal(final, b.refFinal), pkts, table1, b.m.Packets)
	b.checkWindows("fleet", fp.f.WindowReports(), b.refWins)
}

// checkWindows compares window reports with reference bytes, one check
// per reference window plus one for the count.
func (b *bench) checkWindows(what string, wins []*core.WindowReport, refs [][]byte) {
	b.ops.add(len(wins) == len(refs), "%s has %d windows, reference %d", what, len(wins), len(refs))
	for n, ref := range refs {
		var got []byte
		var err error
		if n < len(wins) {
			got, err = core.MarshalReport(wins[n].Report)
		}
		b.ops.add(err == nil && bytes.Equal(got, ref), "%s window %d differs from reference (err=%v)", what, n, err)
	}
}

// checkSameReports checks that a fleet renders exactly its source
// analyzer's cumulative and window reports.
func (b *bench) checkSameReports(what string, got, want *core.Report, gotWins, wantWins []*core.WindowReport) {
	g, gerr := core.MarshalReport(got)
	w, werr := core.MarshalReport(want)
	b.ops.add(gerr == nil && werr == nil && bytes.Equal(g, w), "%s cumulative report differs (%d vs %d bytes)", what, len(g), len(w))
	refs := make([][]byte, 0, len(wantWins))
	for _, wr := range wantWins {
		r, err := core.MarshalReport(wr.Report)
		b.ops.add(err == nil, "%s reference window %d: %v", what, wr.Index, err)
		refs = append(refs, r)
	}
	b.checkWindows(what, gotWins, refs)
}

// fleetReference runs the single windowed instance over every site's
// traces (same origin and ordinals) at one worker.
func (b *bench) fleetReference() error {
	b.tr.startRun("one-worker")
	opts := b.options(1, b.wl.payload, fleetWindow, 0)
	a, fds, _, err := b.batchSetup(opts)
	if err != nil {
		return err
	}
	defer closeAll(fds)
	root := b.tr.begin("pass", -1)
	b.ingest(a, b.m.Files, fds, b.tr, root)
	sp := b.tr.begin("core.Report", root)
	rep := a.Report()
	b.tr.end(sp)
	b.tr.end(root)
	if b.refFinal, err = core.MarshalReport(rep); err != nil {
		return err
	}
	b.refWins = nil
	for _, wr := range a.WindowReports() {
		w, err := core.MarshalReport(wr.Report)
		if err != nil {
			return err
		}
		b.refWins = append(b.refWins, w)
	}
	return nil
}

// timedSink wraps the fleet merger as the aggregator's Sink, timing each
// Delta apply and each delta's trip from ShipDelta to applied.
type timedSink struct {
	*core.Fleet
	t      *tracer
	parent int

	mu          sync.Mutex
	shipAt      map[siteWindow][]time.Time
	applied     map[string]map[uint64]bool
	apply       []float64 // µs
	shipToApply []float64 // ms

	first, final         chan struct{}
	firstOnce, finalOnce sync.Once
}

type siteWindow struct {
	site   string
	window int
}

func newTimedSink(f *core.Fleet, t *tracer) *timedSink {
	return &timedSink{
		Fleet: f, t: t, parent: -1,
		shipAt:  make(map[siteWindow][]time.Time),
		applied: make(map[string]map[uint64]bool),
		first:   make(chan struct{}),
		final:   make(chan struct{}),
	}
}

// noteShip stamps a delta's hand-off to the shipper. Deltas of one
// (site, window) travel one connection in order, so applies pop the
// stamps first in, first out.
func (s *timedSink) noteShip(site string, window int) {
	s.mu.Lock()
	k := siteWindow{site, window}
	s.shipAt[k] = append(s.shipAt[k], time.Now())
	s.mu.Unlock()
}

func (s *timedSink) Delta(site string, window int, seq uint64, watermark int64, payload []byte) error {
	start := time.Now()
	err := s.Fleet.Delta(site, window, seq, watermark, payload)
	end := time.Now()
	s.t.record("fleet.Delta", s.parent, start, end, true)
	s.mu.Lock()
	k := siteWindow{site, window}
	if q := s.shipAt[k]; len(q) > 0 {
		s.shipToApply = append(s.shipToApply, float64(end.Sub(q[0]))/1e6)
		s.shipAt[k] = q[1:]
	}
	s.apply = append(s.apply, float64(end.Sub(start))/1e3)
	if err == nil {
		if s.applied[site] == nil {
			s.applied[site] = make(map[uint64]bool)
		}
		s.applied[site][seq] = true
	}
	s.mu.Unlock()
	if err == nil {
		s.firstOnce.Do(func() { close(s.first) })
	}
	return err
}

func (s *timedSink) Fin(site string, maxWindow int, seq uint64, watermark int64) error {
	err := s.Fleet.Fin(site, maxWindow, seq, watermark)
	if err == nil && s.Fleet.Status().FinalReady {
		s.finalOnce.Do(func() { close(s.final) })
	}
	return err
}

// appliedBy counts the site's distinct deltas applied without error.
func (s *timedSink) appliedBy(site string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.applied[site]))
}

// poller queries the fleet server on a fixed schedule (an open loop: a
// slow answer does not delay the next query), from the first applied
// delta until finish.
type poller struct {
	srv    http.Handler
	t      *tracer
	parent int
	stop   chan struct{}
	done   chan struct{}
	wg     sync.WaitGroup

	mu                 sync.Mutex
	lat, late, handler []float64 // ms
	ok, bad            int64
}

func startPoller(srv http.Handler, first <-chan struct{}, t *tracer, parent int) *poller {
	p := &poller{srv: srv, t: t, parent: parent, stop: make(chan struct{}), done: make(chan struct{})}
	go p.run(first)
	return p
}

func (p *poller) run(first <-chan struct{}) {
	defer close(p.done)
	select {
	case <-first:
	case <-p.stop:
		return
	}
	t0 := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * queryPeriod)
		timer.Reset(time.Until(due))
		select {
		case <-timer.C:
		case <-p.stop:
			return
		}
		late := time.Since(due)
		p.wg.Add(1)
		go p.query(due, late)
	}
}

// query is one /report/latest request, timed from when it was due.
func (p *poller) query(due time.Time, late time.Duration) {
	defer p.wg.Done()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/report/latest", nil)
	start := time.Now()
	p.srv.ServeHTTP(rec, req)
	end := time.Now()
	p.t.record("serve.ServeHTTP", p.parent, start, end, true)
	ok := rec.Code == http.StatusOK && json.Valid(rec.Body.Bytes())
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lat = append(p.lat, float64(end.Sub(due))/1e6)
	p.late = append(p.late, float64(late)/1e6)
	p.handler = append(p.handler, float64(end.Sub(start))/1e6)
	if ok {
		p.ok++
	} else {
		p.bad++
	}
}

// finish stops scheduling and waits for the queries in flight.
func (p *poller) finish() {
	close(p.stop)
	<-p.done
	p.wg.Wait()
}
