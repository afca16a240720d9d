package pcap

import (
	"errors"
	"fmt"
	"io"
	"time"
)

// ErrMmapUnsupported is returned by OpenMmap on platforms without a
// memory-mapping implementation. Callers fall back to the streaming
// Reader path, which is portable.
var ErrMmapUnsupported = errors.New("pcap: mmap not supported on this platform")

// MapSource reads a pcap trace from a byte slice that is already in
// memory — typically a memory-mapped file (OpenMmap) — and hands out
// packets whose Data is a view into that slice rather than a copy. It
// implements PacketSource and Releaser with the same contract as
// PooledReader: a packet is valid until Release, and consumers keeping
// slices into Data past the callback must Retain it first.
//
// As with PooledReader, a released packet's Data pointed into shared
// memory, so Release poisons the struct (Data becomes nil) before
// recycling it: any use-after-release fails loudly with a nil-slice
// panic instead of silently reading whatever record the view happened
// to cover. Retained packets are exempt — their views
// stay valid until Close unmaps the file, which is why Close must not
// be called until the run consuming the source has returned. The
// analysis core's borrow contract (see connStreams.release) guarantees
// nothing derived from packet Data outlives the run, so closing after
// AddTraceSource returns is safe.
//
// Records decode through the Reader's walker, over the image as a
// single block that is never refilled, so the two agree record for
// record: a clean end of the slice is io.EOF; a record cut short —
// header or body — is a sticky error wrapping io.ErrUnexpectedEOF; an
// incl length over the snaplen is a sticky corruption error.
type MapSource struct {
	rd   Reader
	pool *Pool
	// unmap releases the mapping (nil for caller-owned slices).
	unmap func() error
}

// NewMapSource returns a MapSource over an in-memory pcap image. The
// slice is borrowed, not copied: it must stay valid (and unmodified)
// until the source — and every packet retained from it — is done.
func NewMapSource(data []byte) (*MapSource, error) {
	if len(data) < globalHeaderLen {
		return nil, fmt.Errorf("pcap: reading global header: %w", io.ErrUnexpectedEOF)
	}
	f, err := parseGlobalHeader(data)
	if err != nil {
		return nil, err
	}
	// The whole image is buffered and the stream already at its end.
	rd := Reader{f: f, buf: data, off: globalHeaderLen, end: len(data), rerr: io.EOF}
	return &MapSource{rd: rd, pool: NewPool()}, nil
}

// Header returns the trace's global header fields.
func (s *MapSource) Header() Header { return s.rd.f.hdr }

// Next implements PacketSource. The returned packet's Data aliases the
// mapped file — no copy — and is valid until Release (or, if Retained,
// until Close).
func (s *MapSource) Next() (*Packet, error) {
	ts, body, orig, err := s.rd.next()
	if err != nil {
		return nil, err
	}
	p := s.pool.Get()
	p.Timestamp = ts
	p.Data = body
	p.OrigLen = orig
	return p, nil
}

// Release implements Releaser. The packet's Data is a borrowed view, so
// Release poisons it — Data nil, lengths zeroed — before returning the
// struct for reuse. Retained packets are left untouched, views and all.
func (s *MapSource) Release(p *Packet) {
	if p == nil || p.retained {
		return
	}
	p.Data = nil
	p.OrigLen = 0
	p.Timestamp = time.Time{}
	s.pool.Put(p)
}

// Close releases the underlying mapping, if any. Every view handed out
// by Next — including retained packets — dies with it, so Close only
// after the run consuming this source has fully returned.
func (s *MapSource) Close() error {
	s.rd.buf = nil
	// Any Next after Close is a borrow-contract violation; report it as
	// such even on a cleanly drained source (a real read error stays).
	if s.rd.sticky == nil || s.rd.sticky == io.EOF {
		s.rd.sticky = errors.New("pcap: source closed")
	}
	if s.unmap == nil {
		return nil
	}
	unmap := s.unmap
	s.unmap = nil
	return unmap()
}
