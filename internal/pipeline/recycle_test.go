package pipeline

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enttrace/internal/faults"
	"enttrace/internal/flows"
	"enttrace/internal/layers"
	"enttrace/internal/pcap"
)

// splitTrace builds a trace whose connections the flow table ends and
// recreates mid-trace: UDP flows and ICMP echo exchanges that pause
// past their protocol timeouts, TCP connections that pause past a
// two-minute idle horizon, and enough concurrent flows to trip a small
// MaxConns. ARP requests and undecodable frames ride along.
func splitTrace() []*pcap.Packet {
	base := time.Unix(1100000000, 0).UTC()
	var pkts []*pcap.Packet
	add := func(at time.Duration, data []byte) {
		pkts = append(pkts, &pcap.Packet{Timestamp: base.Add(at), Data: data, OrigLen: len(data)})
	}
	addr := func(subnet, host byte) netip.Addr { return netip.AddrFrom4([4]byte{10, 0, subnet, host}) }
	mac := func(n byte) layers.MAC { return layers.MAC{0x02, 0, 0, 0, 0, n} }
	frame := func(h, subnet byte, reply bool) layers.FrameOpts {
		o := layers.FrameOpts{SrcMAC: mac(h), DstMAC: mac(100 + h), SrcIP: addr(0, h), DstIP: addr(subnet, h)}
		if reply {
			o.SrcMAC, o.DstMAC, o.SrcIP, o.DstIP = o.DstMAC, o.SrcMAC, o.DstIP, o.SrcIP
		}
		return o
	}
	// Shorter than an Ethernet header: layers.Decode rejects it.
	garbage := make([]byte, 10)
	for step := 0; step < 60; step++ {
		for h := byte(1); h <= 12; h++ {
			// Distinct per-host timestamps keep MaxConns victims (the
			// least recently active connection) free of ties.
			at := time.Duration(step)*5*time.Second + time.Duration(h)*10*time.Millisecond
			// UDP: 50 s on, 50 s off — past the 30 s UDP timeout.
			if step/10%2 == 0 {
				udp := layers.UDPOpts{FrameOpts: frame(h, 1, false), SrcPort: 5000 + uint16(h), DstPort: 53, Payload: []byte{h}}
				add(at, layers.BuildUDP(udp))
				udp.FrameOpts = frame(h, 1, true)
				udp.SrcPort, udp.DstPort = udp.DstPort, udp.SrcPort
				add(at+time.Millisecond, layers.BuildUDP(udp))
			}
			// ICMP echo every 20 s — past the 10 s ICMP timeout.
			if step%4 == int(h)%4 {
				echo := layers.ICMPOpts{FrameOpts: frame(h, 2, false), Type: layers.ICMPEchoRequest, ID: uint16(h), Seq: uint16(step)}
				add(at+2*time.Millisecond, layers.BuildICMP(echo))
				echo.FrameOpts, echo.Type = frame(h, 2, true), layers.ICMPEchoReply
				add(at+3*time.Millisecond, layers.BuildICMP(echo))
			}
			// TCP: a handshake at step 0, data for 50 s, silence for
			// 150 s (past a two-minute idle horizon), then data again.
			if step < 10 || step >= 40 {
				seg := layers.TCPOpts{FrameOpts: frame(h, 3, false), SrcPort: 40000 + uint16(h), DstPort: 80, Seq: uint32(step * 100), Flags: layers.TCPAck, Payload: []byte("data")}
				if step == 0 {
					seg.Flags, seg.Payload = layers.TCPSyn, nil
				}
				add(at+4*time.Millisecond, layers.BuildTCP(seg))
			}
		}
		at := time.Duration(step)*5*time.Second + 200*time.Millisecond
		add(at, layers.BuildARP(layers.ARPOpts{
			SrcMAC: mac(1), DstMAC: layers.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, Op: 1,
			SenderHW: mac(1), SenderIP: addr(0, 1), TargetIP: addr(0, 254),
		}))
		add(at+time.Millisecond, garbage)
	}
	return pkts
}

// referenceShards replays the router and the flow table outside the
// pipeline: each shard's packets (routed by shardOf) go through a fresh
// table, every connection is keyed by the first index at which the
// table returned it (a per-packet map), and the records are sorted at
// the end. The result is each shard's expected record list.
func referenceShards(t *testing.T, pkts []*pcap.Packet, workers int, cfg flows.Config) [][]ConnRecord {
	t.Helper()
	out := make([][]ConnRecord, workers)
	for s := 0; s < workers; s++ {
		tbl := flows.NewTable(cfg)
		first := make(map[*flows.Conn]int64)
		var p layers.Packet
		for i, pk := range pkts {
			if shardOf(pk.Data, workers) != s {
				continue
			}
			if layers.Decode(pk.Data, pk.OrigLen, &p) != nil {
				continue
			}
			if c, _ := tbl.Packet(pk.Timestamp, &p, pk.OrigLen); c != nil {
				if _, ok := first[c]; !ok {
					first[c] = int64(i)
				}
			}
		}
		tbl.Flush()
		for _, c := range tbl.Conns() {
			out[s] = append(out[s], ConnRecord{Conn: c, FirstIdx: first[c], Shard: s})
		}
		sort.Slice(out[s], func(i, j int) bool { return out[s][i].FirstIdx < out[s][j].FirstIdx })
	}
	return out
}

// TestShardConnsInCreationOrder pins the worker's creation-order
// records: each shard's Conns is strictly increasing in FirstIdx and
// holds exactly the connections its table produced, including those
// the table split and recreated mid-trace (UDP/ICMP timeouts, the idle
// horizon, MaxConns evictions), each with its own record.
func TestShardConnsInCreationOrder(t *testing.T) {
	split := splitTrace()
	cases := []struct {
		name string
		pkts []*pcap.Packet
		cfg  flows.Config
	}{
		{"d3", testTrace(t), flows.Config{}},
		{"timeouts", split, flows.Config{}},
		{"idle", split, flows.Config{IdleTimeout: 2 * time.Minute}},
		{"maxconns", split, flows.Config{MaxConns: 4}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 4} {
			res, err := Run(pcap.NewSliceSource(tc.pkts), Config{Workers: workers, BatchSize: 16, Flows: tc.cfg})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			want := referenceShards(t, tc.pkts, workers, tc.cfg)
			seen := make(map[*flows.Conn]bool)
			recreated := 0
			keys := make(map[layers.FlowKey]int)
			for s, sh := range res.Shards {
				if len(sh.Conns) != len(want[s]) {
					t.Fatalf("%s workers=%d shard %d: %d records, table has %d conns",
						tc.name, workers, s, len(sh.Conns), len(want[s]))
				}
				for i, rec := range sh.Conns {
					if i > 0 && rec.FirstIdx <= sh.Conns[i-1].FirstIdx {
						t.Fatalf("%s workers=%d shard %d: FirstIdx %d after %d",
							tc.name, workers, s, rec.FirstIdx, sh.Conns[i-1].FirstIdx)
					}
					if seen[rec.Conn] {
						t.Fatalf("%s workers=%d: connection recorded twice", tc.name, workers)
					}
					seen[rec.Conn] = true
					ref := want[s][i]
					if rec.FirstIdx != ref.FirstIdx || rec.Shard != s ||
						connFingerprint(rec.Conn) != connFingerprint(ref.Conn) {
						t.Fatalf("%s workers=%d shard %d record %d:\n got %d %s\nwant %d %s",
							tc.name, workers, s, i, rec.FirstIdx, connFingerprint(rec.Conn),
							ref.FirstIdx, connFingerprint(ref.Conn))
					}
					canon, _ := rec.Conn.Key.Canonical()
					if keys[canon]++; keys[canon] > 1 {
						recreated++
					}
				}
			}
			switch tc.name {
			case "timeouts", "idle":
				if recreated == 0 {
					t.Errorf("%s workers=%d: no connection was split and recreated", tc.name, workers)
				}
			case "maxconns":
				if res.CapEvicted == 0 {
					t.Errorf("%s workers=%d: MaxConns never evicted", tc.name, workers)
				}
			}
		}
	}
	// The idle horizon must split TCP connections the default config
	// keeps whole, or the "idle" case covers nothing new.
	count := func(cfg flows.Config) int {
		res, err := Run(pcap.NewSliceSource(split), Config{Workers: 1, Flows: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Shards[0].Conns)
	}
	if plain, idle := count(flows.Config{}), count(flows.Config{IdleTimeout: 2 * time.Minute}); idle <= plain {
		t.Errorf("idle horizon split nothing: %d conns vs %d without it", idle, plain)
	}
}

// auditSource is a pooled source with a counting Releaser. It hands out
// packets from its own free list, copying each record into a recycled
// buffer, and audits every Release against the recycling contract:
// released once, only after the worker's sink callback for it returned,
// and never recycled while retained. Next and Release run on the router
// goroutine; the sink marks run on workers.
type auditSource struct {
	recs  []*pcap.Packet
	errAt map[int]error // record index → error returned in its place
	bound int64         // the pipeline's in-flight packet bound

	mu        sync.Mutex
	pos       int // next record
	delivered atomic.Int64
	free      []*pcap.Packet
	idxOf     map[*pcap.Packet]int64
	released  map[int64]int
	inflight  int64 // delivered and not yet recycled, retained included
	peak      int64
	problems  []string

	// Written by the sink on worker goroutines, indexed by delivery.
	done     []atomic.Bool
	retained []atomic.Pointer[pcap.Packet]
	nRetain  atomic.Int64
	nBad     atomic.Int64
	recOf    []*pcap.Packet
}

func newAuditSource(recs []*pcap.Packet, errAt map[int]error, bound int64) *auditSource {
	return &auditSource{
		recs:     recs,
		errAt:    errAt,
		bound:    bound,
		idxOf:    make(map[*pcap.Packet]int64),
		released: make(map[int64]int),
		done:     make([]atomic.Bool, len(recs)),
		retained: make([]atomic.Pointer[pcap.Packet], len(recs)),
		recOf:    make([]*pcap.Packet, len(recs)),
	}
}

func (s *auditSource) problem(format string, args ...any) {
	if len(s.problems) < 10 {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
}

func (s *auditSource) Next() (*pcap.Packet, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err, ok := s.errAt[s.pos]; ok {
		delete(s.errAt, s.pos)
		s.pos++
		return nil, err
	}
	if s.pos == len(s.recs) {
		return nil, io.EOF
	}
	rec := s.recs[s.pos]
	s.pos++
	var pk *pcap.Packet
	if n := len(s.free); n > 0 {
		pk, s.free = s.free[n-1], s.free[:n-1]
	} else {
		pk = new(pcap.Packet)
	}
	pk.Data = append(pk.Data[:0], rec.Data...)
	pk.Timestamp, pk.OrigLen = rec.Timestamp, rec.OrigLen
	idx := s.delivered.Load()
	s.recOf[idx] = rec
	s.idxOf[pk] = idx
	s.delivered.Add(1)
	s.inflight++
	// Retained packets have left the pipeline's hands for good.
	if n := s.inflight - s.nRetain.Load(); n > s.peak {
		s.peak = n
		if n > s.bound {
			s.problem("%d packets in flight, bound %d", n, s.bound)
		}
	}
	return pk, nil
}

func (s *auditSource) Release(p *pcap.Packet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, ok := s.idxOf[p]
	if !ok {
		s.problem("release of a packet not handed out (double release?)")
		return
	}
	if !s.done[idx].Load() {
		s.problem("packet %d released while its worker still holds it", idx)
	}
	if p.Retained() {
		return // a no-op, as for every pooled source
	}
	delete(s.idxOf, p)
	s.released[idx]++
	s.inflight--
	s.free = append(s.free, p)
}

// auditSink retains every seventh packet and marks each packet's
// callback as finished.
type auditSink struct{ src *auditSource }

func (k auditSink) Packet(idx int64, pk *pcap.Packet, _ *layers.Packet, _ *flows.Conn, _ flows.Dir) {
	if idx%7 == 3 {
		pk.Retain()
		k.src.retained[idx].Store(pk)
		k.src.nRetain.Add(1)
	}
	k.src.done[idx].Store(true)
}

func (k auditSink) Undecodable(idx int64) {
	k.src.nBad.Add(1)
	k.src.done[idx].Store(true)
}

// TestRunRecyclesEveryPacketOnce audits the router's packet recycling
// at every end of a run — clean EOF, a Stopped request, a FailFast
// error, and Degrade skipping a recoverable fault then ending at a
// terminal one. Every non-retained packet must be released exactly
// once (packets still queued when Run returns included), no retained
// packet may be recycled, no packet may be released while its worker
// holds it, and in-flight packets stay within the router's bound.
func TestRunRecyclesEveryPacketOnce(t *testing.T) {
	recs := testTrace(t)
	if len(recs) > 1500 {
		recs = recs[:1500]
	}
	// Undecodable frames take the sink's other callback.
	for i := 100; i < len(recs); i += 97 {
		cp := *recs[i]
		cp.Data = cp.Data[:10]
		recs[i] = &cp
	}
	const batch = 8
	recoverable := &faults.Error{Kind: faults.ReadError}
	terminal := &faults.Error{Kind: faults.Torn}
	ends := []struct {
		name    string
		errAt   map[int]error
		policy  ErrorPolicy
		stopAt  int64
		wantErr bool
	}{
		{name: "eof"},
		{name: "stopped", stopAt: 700},
		{name: "failfast", errAt: map[int]error{900: terminal}, wantErr: true},
		{name: "degrade", errAt: map[int]error{300: recoverable, 1100: terminal}, policy: Degrade},
	}
	for _, end := range ends {
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("%s/workers=%d", end.name, workers)
			errAt := make(map[int]error)
			for k, v := range end.errAt {
				errAt[k] = v
			}
			src := newAuditSource(recs, errAt, int64(workers*(workerQueueDepth+2)*batch))
			cfg := Config{
				Workers:   workers,
				BatchSize: batch,
				OnError:   end.policy,
				NewSink:   func(int, time.Time) Sink { return auditSink{src} },
			}
			if end.stopAt > 0 {
				cfg.Stopped = func() bool { return src.delivered.Load() >= end.stopAt }
			}
			res, err := Run(src, cfg)
			if (err != nil) != end.wantErr {
				t.Fatalf("%s: err = %v, want error %v", name, err, end.wantErr)
			}
			n := src.delivered.Load()
			if res.Packets != n {
				t.Errorf("%s: Result.Packets = %d, source delivered %d", name, res.Packets, n)
			}
			if end.stopAt > 0 && !res.Stopped {
				t.Errorf("%s: run was not stopped", name)
			}
			for _, p := range src.problems {
				t.Errorf("%s: %s", name, p)
			}
			var retained int64
			for idx := int64(0); idx < n; idx++ {
				if pk := src.retained[idx].Load(); pk != nil {
					retained++
					if src.released[idx] != 0 {
						t.Errorf("%s: retained packet %d was recycled", name, idx)
					}
					if !bytes.Equal(pk.Data, src.recOf[idx].Data) {
						t.Errorf("%s: retained packet %d's buffer was reused", name, idx)
					}
					continue
				}
				if got := src.released[idx]; got != 1 {
					t.Errorf("%s: packet %d released %d times, want once", name, idx, got)
				}
			}
			if retained == 0 || src.nBad.Load() == 0 {
				t.Errorf("%s: %d retained, %d undecodable; the checks cover nothing", name, retained, src.nBad.Load())
			}
			if src.inflight != retained {
				t.Errorf("%s: %d packets never came back (%d retained)", name, src.inflight-retained, retained)
			}
			if workers > 1 && src.peak <= batch {
				t.Errorf("%s: peak in-flight %d never exceeded one batch; the bound check covers nothing", name, src.peak)
			}
		}
	}
}

// blockAudit sits between the router and a pooled pcap reader. It keeps
// a copy of every packet's bytes as the packet is delivered and checks
// each Release against it: a packet whose bytes changed before its
// release viewed a read block that was recycled under it, and a
// released packet must come back poisoned. Next and Release run on the
// router goroutine; the sink reads want on the workers, after the
// router's channel send.
type blockAudit struct {
	inner interface {
		pcap.PacketSource
		pcap.Releaser
	}
	want     [][]byte
	idxOf    map[*pcap.Packet]int64
	n        atomic.Int64
	problems []string

	// Written by the sink on worker goroutines, indexed by delivery.
	retained []atomic.Pointer[pcap.Packet]
	nRetain  atomic.Int64
	nChanged atomic.Int64
}

func (a *blockAudit) problem(format string, args ...any) {
	if len(a.problems) < 10 {
		a.problems = append(a.problems, fmt.Sprintf(format, args...))
	}
}

func (a *blockAudit) Next() (*pcap.Packet, error) {
	p, err := a.inner.Next()
	if err != nil {
		return nil, err
	}
	idx := a.n.Load()
	a.want[idx] = bytes.Clone(p.Data)
	a.idxOf[p] = idx
	a.n.Add(1)
	return p, nil
}

func (a *blockAudit) Release(p *pcap.Packet) {
	idx, ok := a.idxOf[p]
	if !ok {
		a.problem("release of a packet not handed out")
		return
	}
	delete(a.idxOf, p)
	if !bytes.Equal(p.Data, a.want[idx]) {
		a.problem("packet %d's block was recycled before the packet's release", idx)
	}
	retained := p.Retained()
	a.inner.Release(p)
	if !retained && p.Data != nil {
		a.problem("released packet %d still has its Data", idx)
	}
}

// blockSink checks every packet's bytes on the worker and retains one
// packet in 97.
type blockSink struct{ a *blockAudit }

func (k blockSink) Packet(idx int64, pk *pcap.Packet, _ *layers.Packet, _ *flows.Conn, _ flows.Dir) {
	if !bytes.Equal(pk.Data, k.a.want[idx]) {
		k.a.nChanged.Add(1)
	}
	if idx%97 == 5 {
		pk.Retain()
		k.a.retained[idx].Store(pk)
		k.a.nRetain.Add(1)
	}
}

func (k blockSink) Undecodable(int64) {}

// TestRunRecyclesEveryBlockOnce runs a trace of many read blocks through
// a pooled pcap reader at every end of a run — clean EOF, a Stopped
// request, a FailFast torn record, and Degrade skipping a recoverable
// fault before ending at the torn record. After the run (and, when
// stopped, after the rest of the trace is drained) every block must be
// back on the pool's free list or dropped for good, pinned blocks
// included; no block may be recycled while a packet views it; released
// packets come back poisoned; and retained packets keep their own bytes
// although later blocks were reused.
func TestRunRecyclesEveryBlockOnce(t *testing.T) {
	recs := testTrace(t)
	if len(recs) > 3000 {
		recs = recs[:3000]
	}
	// A 96-byte snaplen gives 4 KiB blocks: the trace spans dozens.
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, 96, pcap.LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range recs {
		if err := w.WriteCaptured(p.Timestamp, p.Data, p.OrigLen); err != nil {
			t.Fatal(err)
		}
	}
	raw := buf.Bytes()
	torn := raw[:len(raw)-7]
	const blockSize = 4 << 10
	walked := len(raw) / blockSize
	ends := []struct {
		name    string
		raw     []byte
		inject  string
		policy  ErrorPolicy
		stopAt  int64
		wantErr bool
	}{
		{name: "eof", raw: raw},
		{name: "stopped", raw: raw, stopAt: 1500},
		{name: "failfast", raw: torn, wantErr: true},
		{name: "degrade", raw: torn, inject: "read@300", policy: Degrade},
	}
	for _, end := range ends {
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("%s/workers=%d", end.name, workers)
			pool := pcap.NewPool()
			rd, err := pcap.NewReader(bytes.NewReader(end.raw))
			if err != nil {
				t.Fatal(err)
			}
			a := &blockAudit{
				inner:    pcap.NewPooledReader(rd, pool),
				want:     make([][]byte, len(recs)),
				idxOf:    make(map[*pcap.Packet]int64),
				retained: make([]atomic.Pointer[pcap.Packet], len(recs)),
			}
			if end.inject != "" {
				sched, err := faults.ParseSpec(end.inject)
				if err != nil {
					t.Fatal(err)
				}
				a.inner = faults.Wrap(a.inner, sched)
			}
			// Small batches keep the in-flight packets to a few blocks,
			// so blocks are recycled many times over.
			cfg := Config{
				Workers:   workers,
				BatchSize: 16,
				OnError:   end.policy,
				NewSink:   func(int, time.Time) Sink { return blockSink{a} },
			}
			if end.stopAt > 0 {
				cfg.Stopped = func() bool { return a.n.Load() >= end.stopAt }
			}
			res, err := Run(a, cfg)
			if (err != nil) != end.wantErr {
				t.Fatalf("%s: err = %v, want error %v", name, err, end.wantErr)
			}
			if end.policy == Degrade && len(res.SourceErrors) != 2 {
				t.Errorf("%s: source errors %+v, want a read error then a torn record", name, res.SourceErrors)
			}
			if end.stopAt > 0 {
				if !res.Stopped {
					t.Errorf("%s: run was not stopped", name)
				}
				// The reader still holds the block it stopped in; the
				// rest of the trace gives it back.
				for {
					p, err := a.Next()
					if err != nil {
						break
					}
					a.Release(p)
				}
			}
			for _, p := range a.problems {
				t.Errorf("%s: %s", name, p)
			}
			if n := a.nChanged.Load(); n > 0 {
				t.Errorf("%s: %d packets reached their worker with changed bytes", name, n)
			}
			if len(a.idxOf) != 0 {
				t.Errorf("%s: %d packets never came back", name, len(a.idxOf))
			}
			st := pool.BlockStats()
			if st.Made != st.Free+st.Dropped {
				t.Errorf("%s: %d blocks made, %d free, %d dropped: not every block came back once", name, st.Made, st.Free, st.Dropped)
			}
			if st.Made >= walked {
				t.Errorf("%s: %d blocks made for %d walked; no block was reused, so the checks cover nothing", name, st.Made, walked)
			}
			if a.nRetain.Load() == 0 || st.Dropped == 0 {
				t.Errorf("%s: %d retained packets, %d dropped blocks; the pinning checks cover nothing", name, a.nRetain.Load(), st.Dropped)
			}
			for idx := range a.retained {
				if pk := a.retained[idx].Load(); pk != nil && !bytes.Equal(pk.Data, a.want[idx]) {
					t.Errorf("%s: retained packet %d lost its bytes to a recycled block", name, idx)
				}
			}
		}
	}
}
