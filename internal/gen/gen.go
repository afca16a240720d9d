// Package gen is the synthetic-traffic engine: it turns the enterprise
// model and per-application workload descriptions into byte-exact packet
// streams. Every connection is emitted with a real TCP state machine —
// handshake (or rejection, or silence), MSS segmentation, delayed ACKs,
// RTT pacing, optional segment retransmission, keep-alive probes, and FIN
// teardown — so the analyzer measures connection outcomes, durations,
// sizes, and retransmission rates from the wire, never from generator
// ground truth.
package gen

import (
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/layers"
	"enttrace/internal/pcap"
)

// MSS is the TCP segment payload bound. It is chosen so a full data frame
// (14 Ethernet + 20 IP + 20 TCP + MSS = 1500 bytes) exactly fits the
// paper's full-packet snap length: a standard 1460-byte MSS yields
// 1514-byte frames that a 1500-byte snaplen silently truncates by
// 14 payload bytes per segment, which would corrupt every reassembled
// application stream at the analyzer (precisely the capture-loss artifact
// the paper mentions observing).
const MSS = 1446

// Turn is one application-level send within a session.
type Turn struct {
	FromClient bool
	// Delay is think time before this turn (beyond the RTT pacing the
	// emitter applies between turns).
	Delay time.Duration
	Data  []byte
}

// Outcome selects the fate of a TCP connection attempt.
type Outcome int

// Connection outcomes.
const (
	Established Outcome = iota
	Rejected            // SYN answered by RST from the responder
	Unanswered          // SYN (and retries) never answered
)

// TCPOpts describes one TCP session to emit.
type TCPOpts struct {
	Client, Server enterprise.Host
	ClientPort     uint16
	ServerPort     uint16
	Start          time.Time
	RTT            time.Duration
	Turns          []Turn
	Outcome        Outcome
	// LossProb duplicates each data segment with this probability,
	// modeling loss downstream of the monitoring point (the monitor sees
	// both the original and the retransmission).
	LossProb float64
	// KeepAlives appends this many 1-byte snd_nxt-1 probes from the
	// client after the last turn, spaced KeepAliveGap apart (the NCP
	// idle-connection pattern).
	KeepAlives   int
	KeepAliveGap time.Duration
	// NoFin leaves the connection open (end of trace cuts it off).
	NoFin bool
}

// Emitter accumulates timestamped frames for one trace.
type Emitter struct {
	rng  *rand.Rand
	pkts []pcap.Packet
	ipid uint16
}

// NewEmitter returns an emitter seeded deterministically.
func NewEmitter(seed int64) *Emitter {
	return &Emitter{rng: rand.New(rand.NewSource(seed))}
}

// RNG exposes the emitter's deterministic random source for workload
// shaping.
func (e *Emitter) RNG() *rand.Rand { return e.rng }

func (e *Emitter) frame(ts time.Time, data []byte) {
	e.pkts = append(e.pkts, pcap.Packet{Timestamp: ts, Data: data, OrigLen: len(data)})
}

func (e *Emitter) nextID() uint16 {
	e.ipid++
	return e.ipid
}

// Packets returns all emitted frames sorted by timestamp. The slice is
// the emitter's own; callers take ownership.
func (e *Emitter) Packets() []*pcap.Packet {
	sort.SliceStable(e.pkts, func(i, j int) bool {
		return e.pkts[i].Timestamp.Before(e.pkts[j].Timestamp)
	})
	out := make([]*pcap.Packet, len(e.pkts))
	for i := range e.pkts {
		out[i] = &e.pkts[i]
	}
	return out
}

// Drain passes every frame buffered since the last Drain to fn in
// emission order, then clears the buffer for reuse. It is the streaming
// alternative to Packets: Packets sorts and hands over ownership of the
// whole trace at once, while Drain lets a caller consume frames
// incrementally — copying whatever it keeps — so the emitter's buffer
// never grows beyond one drain interval. The data slice must be copied
// if kept: the emitter makes no guarantee about it after fn returns.
func (e *Emitter) Drain(fn func(ts time.Time, data []byte)) {
	for i := range e.pkts {
		fn(e.pkts[i].Timestamp, e.pkts[i].Data)
	}
	e.pkts = e.pkts[:0]
}

func frameOpts(src, dst enterprise.Host, id uint16) layers.FrameOpts {
	return layers.FrameOpts{
		SrcMAC: src.MAC, DstMAC: dst.MAC,
		SrcIP: src.Addr, DstIP: dst.Addr,
		IPID: id,
	}
}

// tcpEndpoint tracks one side's sequence state.
type tcpEndpoint struct {
	host enterprise.Host
	port uint16
	seq  uint32
}

// TCPSession emits one full TCP conversation and returns the time the
// last packet was sent.
func (e *Emitter) TCPSession(o TCPOpts) time.Time {
	owd := o.RTT / 2
	if owd <= 0 {
		owd = 100 * time.Microsecond
	}
	cli := &tcpEndpoint{host: o.Client, port: o.ClientPort, seq: e.rng.Uint32()}
	srv := &tcpEndpoint{host: o.Server, port: o.ServerPort, seq: e.rng.Uint32()}
	now := o.Start

	sendFlags := func(from, to *tcpEndpoint, ts time.Time, flags uint8, ack uint32, payload []byte) {
		e.frame(ts, layers.BuildTCP(layers.TCPOpts{
			FrameOpts: frameOpts(from.host, to.host, e.nextID()),
			SrcPort:   from.port, DstPort: to.port,
			Seq: from.seq, Ack: ack, Flags: flags, Payload: payload,
		}))
	}

	// SYN.
	sendFlags(cli, srv, now, layers.TCPSyn, 0, nil)
	switch o.Outcome {
	case Unanswered:
		// Classic exponential SYN retry, then give up.
		sendFlags(cli, srv, now.Add(3*time.Second), layers.TCPSyn, 0, nil)
		sendFlags(cli, srv, now.Add(9*time.Second), layers.TCPSyn, 0, nil)
		return now.Add(9 * time.Second)
	case Rejected:
		now = now.Add(owd)
		// RST from the server, with the server's seq zero-ish.
		e.frame(now, layers.BuildTCP(layers.TCPOpts{
			FrameOpts: frameOpts(o.Server, o.Client, e.nextID()),
			SrcPort:   o.ServerPort, DstPort: o.ClientPort,
			Seq: 0, Ack: cli.seq + 1, Flags: layers.TCPRst | layers.TCPAck,
		}))
		return now
	}
	cli.seq++
	now = now.Add(owd)
	sendFlags(srv, cli, now, layers.TCPSyn|layers.TCPAck, cli.seq, nil)
	srv.seq++
	now = now.Add(owd)
	sendFlags(cli, srv, now, layers.TCPAck, srv.seq, nil)

	// Data turns.
	for _, turn := range o.Turns {
		now = now.Add(turn.Delay)
		from, to := srv, cli
		if turn.FromClient {
			from, to = cli, srv
		}
		data := turn.Data
		segIdx := 0
		for len(data) > 0 {
			n := len(data)
			if n > MSS {
				n = MSS
			}
			seg := data[:n]
			data = data[n:]
			sendFlags(from, to, now, layers.TCPAck|layers.TCPPsh, to.seq, seg)
			if o.LossProb > 0 && e.rng.Float64() < o.LossProb {
				// Retransmission of the same segment an RTO later.
				sendFlags(from, to, now.Add(200*time.Millisecond), layers.TCPAck|layers.TCPPsh, to.seq, seg)
			}
			from.seq += uint32(n)
			segIdx++
			if segIdx%2 == 0 {
				// Delayed ACK from the receiver.
				sendFlags(to, from, now.Add(owd), layers.TCPAck, from.seq, nil)
			}
			now = now.Add(12 * time.Microsecond) // serialization spacing
		}
		// Final ACK for the turn.
		sendFlags(to, from, now.Add(owd), layers.TCPAck, from.seq, nil)
		now = now.Add(owd)
	}

	// Keep-alive probes (1 byte at snd_nxt-1).
	if o.KeepAlives > 0 {
		gap := o.KeepAliveGap
		if gap == 0 {
			gap = time.Minute
		}
		for i := 0; i < o.KeepAlives; i++ {
			now = now.Add(gap)
			e.frame(now, layers.BuildTCP(layers.TCPOpts{
				FrameOpts: frameOpts(o.Client, o.Server, e.nextID()),
				SrcPort:   o.ClientPort, DstPort: o.ServerPort,
				Seq: cli.seq - 1, Ack: srv.seq, Flags: layers.TCPAck, Payload: []byte{0},
			}))
			// Keep-alive ACK response.
			e.frame(now.Add(owd), layers.BuildTCP(layers.TCPOpts{
				FrameOpts: frameOpts(o.Server, o.Client, e.nextID()),
				SrcPort:   o.ServerPort, DstPort: o.ClientPort,
				Seq: srv.seq, Ack: cli.seq, Flags: layers.TCPAck,
			}))
		}
	}

	if !o.NoFin {
		sendFlags(cli, srv, now, layers.TCPFin|layers.TCPAck, srv.seq, nil)
		cli.seq++
		now = now.Add(owd)
		sendFlags(srv, cli, now, layers.TCPFin|layers.TCPAck, cli.seq, nil)
		srv.seq++
		now = now.Add(owd)
		sendFlags(cli, srv, now, layers.TCPAck, srv.seq, nil)
	}
	return now
}

// UDPExchange emits a request datagram and optional reply, returning the
// reply time (or request time if unanswered).
func (e *Emitter) UDPExchange(client, server enterprise.Host, cport, sport uint16, start time.Time, rtt time.Duration, req, reply []byte) time.Time {
	e.frame(start, layers.BuildUDP(layers.UDPOpts{
		FrameOpts: frameOpts(client, server, e.nextID()),
		SrcPort:   cport, DstPort: sport, Payload: req,
	}))
	if reply == nil {
		return start
	}
	at := start.Add(rtt)
	e.frame(at, layers.BuildUDP(layers.UDPOpts{
		FrameOpts: frameOpts(server, client, e.nextID()),
		SrcPort:   sport, DstPort: cport, Payload: reply,
	}))
	return at
}

// UDPSend emits a single one-way datagram (announcements, multicast).
func (e *Emitter) UDPSend(src, dst enterprise.Host, sport, dport uint16, ts time.Time, payload []byte) {
	e.frame(ts, layers.BuildUDP(layers.UDPOpts{
		FrameOpts: frameOpts(src, dst, e.nextID()),
		SrcPort:   sport, DstPort: dport, Payload: payload,
	}))
}

// ICMPEcho emits an echo request and, when answered, its reply.
func (e *Emitter) ICMPEcho(client, server enterprise.Host, id, seq uint16, start time.Time, rtt time.Duration, answered bool) {
	e.frame(start, layers.BuildICMP(layers.ICMPOpts{
		FrameOpts: frameOpts(client, server, e.nextID()),
		Type:      layers.ICMPEchoRequest, ID: id, Seq: seq, Payload: make([]byte, 56),
	}))
	if answered {
		e.frame(start.Add(rtt), layers.BuildICMP(layers.ICMPOpts{
			FrameOpts: frameOpts(server, client, e.nextID()),
			Type:      layers.ICMPEchoReply, ID: id, Seq: seq, Payload: make([]byte, 56),
		}))
	}
}

// ARPExchange emits a broadcast who-has and its unicast reply.
func (e *Emitter) ARPExchange(asker, owner enterprise.Host, ts time.Time) {
	e.frame(ts, layers.BuildARP(layers.ARPOpts{
		SrcMAC: asker.MAC, DstMAC: layers.Broadcast,
		Op:       1,
		SenderHW: asker.MAC, SenderIP: asker.Addr,
		TargetIP: owner.Addr,
	}))
	e.frame(ts.Add(300*time.Microsecond), layers.BuildARP(layers.ARPOpts{
		SrcMAC: owner.MAC, DstMAC: asker.MAC,
		Op:       2,
		SenderHW: owner.MAC, SenderIP: owner.Addr,
		TargetHW: asker.MAC, TargetIP: asker.Addr,
	}))
}

// IPXBroadcast emits a Novell SAP-style broadcast.
func (e *Emitter) IPXBroadcast(src enterprise.Host, ts time.Time, payload []byte, raw8023 bool) {
	e.frame(ts, layers.BuildIPX(layers.IPXOpts{
		SrcMAC: src.MAC, DstMAC: layers.Broadcast,
		SrcNet: 1, DstNet: 0,
		SrcSocket: 0x0452, DstSocket: 0x0452, // SAP
		PacketType: 4,
		Payload:    payload,
		Raw8023:    raw8023,
	}))
}

// MulticastHost fabricates a pseudo-host for a multicast group so the
// generic emitters can address it.
func MulticastHost(group [4]byte) enterprise.Host {
	addr := netip.AddrFrom4(group)
	return enterprise.Host{
		Addr: addr,
		MAC:  layers.MulticastMAC(addr),
	}
}
