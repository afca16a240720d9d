// Package pcap implements the classic libpcap trace file format: the
// 24-byte global header followed by 16-byte-headed packet records. It
// supports both byte orders, microsecond and nanosecond timestamp variants,
// snaplen truncation on write (the paper's D1/D2 datasets were captured
// with a 68-byte snaplen), and two readers that decode records
// identically: the streaming Reader and the zero-copy MapSource over a
// memory-mapped file.
//
// Only link type Ethernet (DLT_EN10MB = 1) is used by this repository, but
// the reader preserves whatever link type the file declares.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"time"
)

// readBufferSize is the bufio buffer NewReader installs over unbuffered
// streams. Large enough that even jumbo records need one refill at most.
const readBufferSize = 256 << 10

// Magic numbers for the two timestamp resolutions, in file byte order.
const (
	MagicMicroseconds = 0xa1b2c3d4
	MagicNanoseconds  = 0xa1b23c4d
)

// LinkTypeEthernet is DLT_EN10MB.
const LinkTypeEthernet = 1

const (
	globalHeaderLen = 24
	recordHeaderLen = 16
)

// ErrBadMagic is returned when a file does not start with a known pcap
// magic number in either byte order.
var ErrBadMagic = errors.New("pcap: bad magic number")

// Packet is one captured packet record.
type Packet struct {
	// Timestamp is the capture time.
	Timestamp time.Time
	// Data holds the captured bytes (possibly truncated to snaplen).
	Data []byte
	// OrigLen is the original wire length, >= len(Data).
	OrigLen int

	// retained marks a pooled packet whose Data has escaped into
	// longer-lived state; Pool.Put leaves it alone. See Retain.
	retained bool
}

// Retain marks the packet as kept by its consumer: a subsequent Pool.Put
// becomes a no-op, so Data is never recycled out from under references
// held beyond the packet callback. Harmless on non-pooled packets.
func (p *Packet) Retain() { p.retained = true }

// Retained reports whether Retain was called since the packet was last
// issued by a Pool.
func (p *Packet) Retained() bool { return p.retained }

// Truncated reports whether the capture lost bytes to the snaplen.
func (p *Packet) Truncated() bool { return p.OrigLen > len(p.Data) }

// Header describes a trace file's global header.
type Header struct {
	SnapLen  uint32
	LinkType uint32
	// Nanos indicates nanosecond timestamp resolution.
	Nanos bool
}

// Reader reads packets from a pcap stream.
type Reader struct {
	r      io.Reader
	f      recordFormat
	rec    [recordHeaderLen]byte
	sticky error
}

// NewReader parses the global header from r and returns a Reader. Readers
// without their own buffering (anything not implementing io.ByteReader,
// such as *os.File) are wrapped in a large bufio.Reader, so record-sized
// reads never hit the underlying stream directly.
func NewReader(r io.Reader) (*Reader, error) {
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReaderSize(r, readBufferSize)
	}
	var gh [globalHeaderLen]byte
	if _, err := io.ReadFull(r, gh[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	f, err := parseGlobalHeader(gh[:])
	if err != nil {
		return nil, err
	}
	return &Reader{r: r, f: f}, nil
}

// recordFormat is what decoding a record header depends on: the global
// header and its byte order. The streaming Reader and the memory-mapped
// MapSource share it, so both parse, bound and timestamp every record
// the same way.
type recordFormat struct {
	hdr       Header
	bigEndian bool
}

// parseGlobalHeader decodes the 24-byte pcap global header at the start
// of gh: magic (either byte order, µs or ns timestamp variant), snaplen,
// link type.
func parseGlobalHeader(gh []byte) (recordFormat, error) {
	var f recordFormat
	var order binary.ByteOrder = binary.LittleEndian
	magic := order.Uint32(gh[0:4])
	if magic != MagicMicroseconds && magic != MagicNanoseconds {
		order, f.bigEndian = binary.BigEndian, true
		magic = order.Uint32(gh[0:4])
	}
	switch magic {
	case MagicMicroseconds:
	case MagicNanoseconds:
		f.hdr.Nanos = true
	default:
		return recordFormat{}, ErrBadMagic
	}
	f.hdr.SnapLen = order.Uint32(gh[16:20])
	f.hdr.LinkType = order.Uint32(gh[20:24])
	return f, nil
}

// parseRecord decodes a 16-byte record header into the capture time,
// the captured length and the original wire length. A captured length
// over the snaplen (or over 16 MB when the trace declares none) is
// corruption. The byte-order loads are inlined, so a record costs one
// call here rather than four dynamic ByteOrder calls.
func (f *recordFormat) parseRecord(rec *[recordHeaderLen]byte) (ts time.Time, incl, orig int, err error) {
	var sec, frac, n, wire uint32
	if f.bigEndian {
		sec, frac = binary.BigEndian.Uint32(rec[0:4]), binary.BigEndian.Uint32(rec[4:8])
		n, wire = binary.BigEndian.Uint32(rec[8:12]), binary.BigEndian.Uint32(rec[12:16])
	} else {
		sec, frac = binary.LittleEndian.Uint32(rec[0:4]), binary.LittleEndian.Uint32(rec[4:8])
		n, wire = binary.LittleEndian.Uint32(rec[8:12]), binary.LittleEndian.Uint32(rec[12:16])
	}
	if n > f.hdr.SnapLen && f.hdr.SnapLen != 0 || n > 1<<24 {
		return time.Time{}, 0, 0, fmt.Errorf("pcap: record length %d exceeds snaplen %d", n, f.hdr.SnapLen)
	}
	nsec := int64(frac) * 1000
	if f.hdr.Nanos {
		nsec = int64(frac)
	}
	return time.Unix(int64(sec), nsec).UTC(), int(n), int(wire), nil
}

// recordHeaderError and recordBodyError are the two shapes of a failed
// record read. A record cut short by the end of the input wraps
// io.ErrUnexpectedEOF, which ClassifyReadError counts as a torn record.
func recordHeaderError(err error) error {
	return fmt.Errorf("pcap: reading record header: %w", err)
}

func recordBodyError(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("pcap: reading packet body: %w", err)
}

// Header returns the trace's global header fields.
func (r *Reader) Header() Header { return r.f.hdr }

// Next returns the next packet, or io.EOF at a clean end of file. The
// returned Data slice is freshly allocated to the record's exact size
// and owned by the caller; for an allocation-free hot path use NextInto
// with recycled packets.
func (r *Reader) Next() (*Packet, error) {
	p := new(Packet)
	if err := r.readInto(p, false); err != nil {
		return nil, err
	}
	return p, nil
}

// NextInto reads the next record into p, reusing p.Data's capacity when it
// fits, and returns io.EOF at a clean end of file. A record cut short by
// the end of the stream — header or body — yields an error wrapping
// io.ErrUnexpectedEOF. Any previous contents of p are overwritten.
func (r *Reader) NextInto(p *Packet) error {
	return r.readInto(p, true)
}

// readInto is the shared record reader. reuse selects the buffer policy:
// rounded-up allocations that converge under recycling (NextInto), or
// exact-size allocations for packets the caller keeps (Next) — a
// materialized header-only trace must not pay 2 KB per 96-byte record.
func (r *Reader) readInto(p *Packet, reuse bool) error {
	if r.sticky != nil {
		return r.sticky
	}
	if _, err := io.ReadFull(r.r, r.rec[:]); err != nil {
		if err == io.EOF {
			r.sticky = io.EOF
			return io.EOF
		}
		// ReadFull's io.ErrUnexpectedEOF (a partial header) stays
		// visible through the wrapping.
		r.sticky = recordHeaderError(err)
		return r.sticky
	}
	ts, n, orig, err := r.f.parseRecord(&r.rec)
	if err != nil {
		r.sticky = err
		return err
	}
	switch {
	case cap(p.Data) >= n:
		p.Data = p.Data[:n]
	case reuse:
		// Round the allocation up so a recycled buffer converges on the
		// trace's largest record instead of reallocating per size class,
		// but never past the snaplen: no record of this trace can need
		// more, and a 68-byte header trace must not hold 2 KB per packet.
		c := roundUpPow2(n)
		if snap := int(r.f.hdr.SnapLen); snap != 0 && c > snap {
			c = snap
		}
		p.Data = make([]byte, n, c)
	default:
		p.Data = make([]byte, n)
	}
	if _, err := io.ReadFull(r.r, p.Data); err != nil {
		r.sticky = recordBodyError(err)
		return r.sticky
	}
	p.Timestamp = ts
	p.OrigLen = orig
	p.retained = false
	return nil
}

// roundUpPow2 rounds n up to the next power of two, with a floor that
// covers typical full-size Ethernet frames.
func roundUpPow2(n int) int {
	const floor = 2048
	if n <= floor {
		return floor
	}
	return 1 << bits.Len(uint(n-1))
}

// ReadAll drains the reader, returning every packet until EOF. On error —
// including a final record truncated by the end of the stream, reported
// as an error wrapping io.ErrUnexpectedEOF — the packets successfully
// read before the failure are returned alongside it.
func (r *Reader) ReadAll() ([]*Packet, error) { return ReadAll(r) }

// Writer writes packets to a pcap stream, truncating to the configured
// snaplen as a capture device would.
type Writer struct {
	w       io.Writer
	snaplen uint32
	nanos   bool
	rec     [recordHeaderLen]byte
	wrote   bool
}

// NewWriter writes a global header to w and returns a Writer. A snaplen of
// zero means "no truncation" and is recorded as 65535. linkType is usually
// LinkTypeEthernet.
func NewWriter(w io.Writer, snaplen uint32, linkType uint32) (*Writer, error) {
	if snaplen == 0 {
		snaplen = 65535
	}
	var gh [globalHeaderLen]byte
	binary.LittleEndian.PutUint32(gh[0:4], MagicMicroseconds)
	binary.LittleEndian.PutUint16(gh[4:6], 2) // version 2.4
	binary.LittleEndian.PutUint16(gh[6:8], 4)
	// thiszone, sigfigs stay zero.
	binary.LittleEndian.PutUint32(gh[16:20], snaplen)
	binary.LittleEndian.PutUint32(gh[20:24], linkType)
	if _, err := w.Write(gh[:]); err != nil {
		return nil, fmt.Errorf("pcap: writing global header: %w", err)
	}
	return &Writer{w: w, snaplen: snaplen}, nil
}

// SnapLen returns the writer's snaplen.
func (w *Writer) SnapLen() uint32 { return w.snaplen }

// WritePacket writes one record; data longer than the snaplen is truncated
// and the original length preserved in the record header.
func (w *Writer) WritePacket(ts time.Time, data []byte) error {
	return w.WriteCaptured(ts, data, len(data))
}

// WriteCaptured writes a record whose data was already truncated upstream,
// preserving the original wire length in the record header.
func (w *Writer) WriteCaptured(ts time.Time, data []byte, origLen int) error {
	orig := origLen
	if orig < len(data) {
		orig = len(data)
	}
	if uint32(len(data)) > w.snaplen {
		data = data[:w.snaplen]
	}
	binary.LittleEndian.PutUint32(w.rec[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(w.rec[4:8], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(w.rec[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(w.rec[12:16], uint32(orig))
	if _, err := w.w.Write(w.rec[:]); err != nil {
		return fmt.Errorf("pcap: writing record header: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("pcap: writing packet body: %w", err)
	}
	w.wrote = true
	return nil
}
