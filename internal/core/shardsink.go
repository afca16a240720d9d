package core

import (
	"net/netip"
	"time"

	"enttrace/internal/flows"
	"enttrace/internal/layers"
	"enttrace/internal/pcap"
	"enttrace/internal/reassembly"
	"enttrace/internal/stats"
)

// bufferedProtos are the TCP protocols whose payloads are reassembled.
var bufferedProtos = map[string]int{
	"HTTP":        4 << 20,
	"FTP":         1 << 20,
	"SMTP":        1 << 20,
	"IMAP4":       1 << 20,
	"CIFS":        2 << 20,
	"Netbios-SSN": 2 << 20,
	"NCP":         2 << 20,
	"NFS":         2 << 20,
	"Spoolss":     1 << 20, // dynamically mapped DCE/RPC service ports
}

// unknownStreamLimit bounds reassembly for TCP connections the registry
// cannot classify when they attach. An unclassified ephemeral-port
// service may be registered later in the trace (DCE/RPC endpoint
// mapping, FTP PASV), so the stream is kept around for the
// deterministic replay to classify and parse. The limit matches the
// Spoolss entry above — the one dynamically mapped protocol the replay
// actually parses. This buffering is the streaming pipeline's main
// memory trade-off: up to 2 MB per unclassified high-port connection
// until trace end (see DESIGN.md §3).
const unknownStreamLimit = 1 << 20

// shardSink is the analysis layer's per-shard state: packet-level
// accumulators that merge cheaply after the run, plus the reassembled
// application streams and captured UDP messages that the deterministic
// replay consumes. It is owned by one pipeline worker; nothing here is
// shared while packets flow.
type shardSink struct {
	opts      *Options
	monitored netip.Prefix
	base      time.Time

	// Packet-level accumulators (merged across shards in shard order).
	// netLayer counts frames per Table 2 key, indexed like netLayerKeys.
	netLayer                          [len(netLayerKeys)]int64
	monHosts, localHosts, remoteHosts map[netip.Addr]struct{}
	// bins holds wire bytes per second since base (the trace's first
	// packet, fixed by the router before any worker starts).
	bins []int64
	// maxTS is this shard's event-time high-water mark; the trace
	// watermark (max across shards, read after all workers drain) drives
	// window completion in windowed mode.
	maxTS time.Time

	// Deferred application state, replayed in global packet order.
	conns map[*flows.Conn]*connStreams
	udp   []udpEvent
	// udpSlab holds copies of the captured datagrams' payloads.
	udpSlab []byte
}

// udpEvent is one captured datagram for an application protocol the
// paper parses per message (DNS, Netbios/NS, NFS-over-UDP).
type udpEvent struct {
	idx              int64
	ts               time.Time
	src, dst         netip.Addr
	srcPort, dstPort uint16
	payload          []byte
}

// connStreams buffers one TCP connection's two directions until replay.
// The streams are embedded by value (one allocation per connection), and
// every byte buffer underneath them is pooled: replayApps releases the
// whole structure back to the reassembly buffer pool at end of trace.
type connStreams struct {
	// kind is the registry protocol name when the connection attached;
	// replay re-classifies, so this only records the buffering decision.
	kind string
	// buffered reports whether the streams below are live.
	buffered             bool
	cliStream, srvStream reassembly.Stream
	cliBuf, srvBuf       reassembly.BufferConsumer
	// epmCli/epmSrv replace the buffers for Endpoint Mapper connections,
	// preserving gap boundaries so replay can resynchronize PDU parsing
	// exactly where the incremental parser would have.
	epmCli, epmSrv *segBuffer
	// released guards double-recycling: the owning replay worker
	// releases a connection's streams, and a serial sweep afterwards
	// catches connections the flow table never surfaced.
	released bool
	// Hostile-input signals observed at packet time. rstSeen flags any
	// RST on the connection; bogusRST counts RSTs whose sequence number
	// disagrees with the receiver's reassembly cursor (the blind-reset /
	// evasion shape); postRSTData counts payload segments that keep
	// flowing after a RST was seen.
	rstSeen     bool
	bogusRST    int64
	postRSTData int64
}

func newShardSink(opts *Options, monitored netip.Prefix, base time.Time) *shardSink {
	return &shardSink{
		opts:        opts,
		monitored:   monitored,
		base:        base,
		monHosts:    make(map[netip.Addr]struct{}),
		localHosts:  make(map[netip.Addr]struct{}),
		remoteHosts: make(map[netip.Addr]struct{}),
		conns:       make(map[*flows.Conn]*connStreams),
	}
}

// netLayerKeys are the network-layer counter keys (Table 2 plus the
// undecodable census), in shardSink.netLayer index order.
var netLayerKeys = [...]string{"IP", "ARP", "IPX", "Other", "undecodable"}

const (
	netIP = iota
	netARP
	netIPX
	netOther
	netUndecodable
)

// foldNetLayer adds the shard's network-layer counts into c. Keys the
// shard never saw stay absent, so the key set is what per-packet
// counting would have produced.
func (s *shardSink) foldNetLayer(c *stats.Counter) {
	for i, n := range s.netLayer {
		if n != 0 {
			c.Add(netLayerKeys[i], n)
		}
	}
}

// Undecodable implements pipeline.Sink.
func (s *shardSink) Undecodable(idx int64) {
	s.netLayer[netUndecodable]++
}

// Packet implements pipeline.Sink. pk may come from a recycled-buffer
// source: anything that outlives this call must either copy out of
// pk.Data (TCP reassembly buffers and UDP capture do) or call
// pk.Retain(), or a reused buffer would leak other packets' bytes into
// the analysis.
func (s *shardSink) Packet(idx int64, pk *pcap.Packet, p *layers.Packet, conn *flows.Conn, dir flows.Dir) {
	s.countNetLayer(p)
	switch {
	case conn == nil:
		s.recordHosts(p)
	case conn.Packets() == 1:
		// Every packet of a connection carries its key's two endpoints
		// (flows keys on NetSrc/NetDst), so the census needs only the
		// packet that created it.
		s.recordHost(conn.Key.Src)
		s.recordHost(conn.Key.Dst)
	}
	s.bin(pk.Timestamp, pk.OrigLen)
	if pk.Timestamp.After(s.maxTS) {
		s.maxTS = pk.Timestamp
	}
	if !s.opts.PayloadAnalysis || conn == nil {
		return
	}
	if p.Layers.Has(layers.LayerUDP) {
		s.captureUDP(idx, pk, p)
		return
	}
	if !p.Layers.Has(layers.LayerTCP) {
		return
	}
	app := s.conns[conn]
	if app == nil {
		name, _ := s.opts.Registry.Classify(conn.Proto, conn.Key.Src, conn.Key.Dst, conn.Key.SrcPort, conn.Key.DstPort)
		app = newConnStreams(name, conn)
		s.conns[conn] = app
	}
	if len(p.Payload) > 0 && app.rstSeen {
		app.postRSTData++
	}
	if !app.buffered {
		if p.TCP.Flags&layers.TCPRst != 0 {
			app.rstSeen = true
		}
		return
	}
	stream := &app.cliStream
	if dir == flows.DirResp {
		stream = &app.srvStream
	}
	if p.TCP.Flags&layers.TCPRst != 0 {
		// A reset whose sequence number disagrees with the sender's own
		// stream cursor is the blind-reset evasion shape: an injected RST
		// would tear the monitor's state down while the endpoints (which
		// check sequence numbers) keep talking.
		if stream.Started() && p.TCP.Seq != stream.NextSeq() {
			app.bogusRST++
		}
		app.rstSeen = true
	}
	if p.TCP.Flags&layers.TCPSyn != 0 {
		stream.SetISN(p.TCP.Seq + 1)
		return
	}
	if len(p.Payload) > 0 {
		stream.Segment(p.TCP.Seq, p.Payload)
	}
}

// newConnStreams decides, from the attach-time classification, whether
// and how a connection's payload is buffered for replay.
func newConnStreams(name string, conn *flows.Conn) *connStreams {
	app := &connStreams{kind: name}
	switch {
	case name == "FTP" && conn.Key.DstPort == 21:
		// Control channel: the client side is size-capped like any other
		// buffered protocol; the server side is kept whole so replay can
		// register PASV data ports before classifying later connections.
		app.cliBuf.Limit = bufferedProtos[name]
		app.buffered = true
		app.cliStream.Init(&app.cliBuf)
		app.srvStream.Init(&app.srvBuf)
	case name == "DCE/RPC-EPM":
		app.epmCli = &segBuffer{}
		app.epmSrv = &segBuffer{}
		app.buffered = true
		app.cliStream.Init(app.epmCli)
		app.srvStream.Init(app.epmSrv)
	default:
		limit, buffered := bufferedProtos[name]
		if !buffered && name == "" && conn.Key.DstPort > 1023 {
			// Unclassified ephemeral port: it may be endpoint-mapped
			// later in the trace. Well-known unregistered ports cannot
			// be (EPM and PASV always map ephemeral ports), so scan
			// probes and other low-port junk are not buffered.
			limit, buffered = unknownStreamLimit, true
		}
		if buffered {
			app.cliBuf.Limit = limit
			app.srvBuf.Limit = limit
			app.buffered = true
			app.cliStream.Init(&app.cliBuf)
			app.srvStream.Init(&app.srvBuf)
		}
	}
	return app
}

// release sends every pooled byte buffer under this connection's streams
// back to the reassembly pool. Any slice of the stream buffers taken
// during replay is invalid afterwards; parse results that outlive replay
// hold copies (strings or owned structs), never stream sub-slices.
func (app *connStreams) release() {
	if !app.buffered || app.released {
		return
	}
	app.released = true
	// Streams the replay never parsed still hold out-of-order data.
	app.cliStream.Discard()
	app.srvStream.Discard()
	app.cliBuf.Release()
	app.srvBuf.Release()
	if app.epmCli != nil {
		app.epmCli.release()
		app.epmSrv.release()
	}
}

// captureUDP records datagrams for the message-based analyzers. The
// replay reads the payload after the pooled source has taken the packet
// back, so it is copied into the shard's slab. Retaining the packet
// instead would pin its whole read block for the rest of the trace.
func (s *shardSink) captureUDP(idx int64, pk *pcap.Packet, p *layers.Packet) {
	if len(p.Payload) == 0 || !udpAppPorts(p.UDP.SrcPort, p.UDP.DstPort) {
		return
	}
	src, _ := p.NetSrc()
	dst, _ := p.NetDst()
	s.udp = append(s.udp, udpEvent{
		idx: idx, ts: pk.Timestamp, src: src, dst: dst,
		srcPort: p.UDP.SrcPort, dstPort: p.UDP.DstPort,
		payload: s.keepUDP(p.Payload),
	})
}

// udpSlabMax caps the size of one UDP payload slab chunk.
const udpSlabMax = 64 << 10

// keepUDP copies b into the shard's slab and returns the copy. A full
// slab is left to the payloads already cut from it, and the next chunk
// doubles in size up to udpSlabMax, so a trace with a handful of
// datagrams allocates little and one with many allocates rarely.
func (s *shardSink) keepUDP(b []byte) []byte {
	if cap(s.udpSlab)-len(s.udpSlab) < len(b) {
		s.udpSlab = make([]byte, 0, max(len(b), min(max(2*cap(s.udpSlab), 1<<10), udpSlabMax)))
	}
	start := len(s.udpSlab)
	s.udpSlab = append(s.udpSlab, b...)
	return s.udpSlab[start:len(s.udpSlab):len(s.udpSlab)]
}

func (s *shardSink) countNetLayer(p *layers.Packet) {
	switch {
	case p.Layers.Has(layers.LayerIPv4), p.Layers.Has(layers.LayerIPv6):
		s.netLayer[netIP]++
	case p.Layers.Has(layers.LayerARP):
		s.netLayer[netARP]++
	case p.Layers.Has(layers.LayerIPX):
		s.netLayer[netIPX]++
	default:
		s.netLayer[netOther]++
	}
}

// recordHosts adds a packet's network endpoints to the host census. The
// sink calls it only for packets outside any connection; a connection's
// endpoints are recorded once, at its first packet.
func (s *shardSink) recordHosts(p *layers.Packet) {
	if src, ok := p.NetSrc(); ok {
		s.recordHost(src)
	}
	if dst, ok := p.NetDst(); ok {
		s.recordHost(dst)
	}
}

func (s *shardSink) recordHost(addr netip.Addr) {
	if !addr.IsValid() || addr.IsMulticast() {
		return
	}
	switch {
	case s.monitored.Contains(addr):
		s.monHosts[addr] = struct{}{}
		s.localHosts[addr] = struct{}{}
	case s.opts.IsLocal(addr):
		s.localHosts[addr] = struct{}{}
	default:
		s.remoteHosts[addr] = struct{}{}
	}
}

func (s *shardSink) bin(ts time.Time, wireLen int) {
	sec := int(ts.Sub(s.base) / time.Second)
	if sec < 0 {
		sec = 0
	}
	if sec >= len(s.bins) {
		// Fill the gap in one step: a long idle stretch in a trace must
		// cost one grow, not one append per missing second. Capacity
		// doubles, so n quiet-then-busy traces stay amortized O(1)/packet.
		if sec < cap(s.bins) {
			// The unused capacity is already zeroed: bins never shrink,
			// and nothing past len has ever been written.
			s.bins = s.bins[:sec+1]
		} else {
			newCap := 2 * cap(s.bins)
			if newCap <= sec {
				newCap = sec + 1
			}
			grown := make([]int64, sec+1, newCap)
			copy(grown, s.bins)
			s.bins = grown
		}
	}
	s.bins[sec] += int64(wireLen)
}

// segBuffer accumulates a reassembled stream as gap-delimited contiguous
// segments. PDU parsers resynchronize at segment boundaries, mirroring
// the incremental parser's buffer reset on Gap. Segment storage is drawn
// from the reassembly buffer pool and recycled by release.
type segBuffer struct {
	segs [][]byte
	cur  []byte
}

// Data implements reassembly.Consumer, copying the borrowed chunk.
func (b *segBuffer) Data(d []byte) {
	b.cur = reassembly.AppendPooled(b.cur, d)
}

// release recycles every pooled segment.
func (b *segBuffer) release() {
	for i := range b.segs {
		reassembly.PutBuffer(b.segs[i])
		b.segs[i] = nil
	}
	b.segs = nil
	reassembly.PutBuffer(b.cur)
	b.cur = nil
}

// Gap implements reassembly.Consumer.
func (b *segBuffer) Gap(n int) {
	if len(b.cur) > 0 {
		b.segs = append(b.segs, b.cur)
		b.cur = nil
	}
}

// segments returns every contiguous stream region in order.
func (b *segBuffer) segments() [][]byte {
	if len(b.cur) > 0 {
		return append(b.segs, b.cur)
	}
	return b.segs
}
