// Package pcap implements the classic libpcap trace file format: the
// 24-byte global header followed by 16-byte-headed packet records. It
// supports both byte orders, microsecond and nanosecond timestamp variants,
// snaplen truncation on write (the paper's D1/D2 datasets were captured
// with a 68-byte snaplen), and one record walker that every reader
// shares, so they all decode records and fail identically. The streaming
// Reader reads its input in large blocks and walks them in place: Next
// and NextInto copy records out, while a PooledReader hands out packets
// whose Data is a view into a recycled block. MapSource walks a
// memory-mapped file as a single block that is never refilled.
//
// Only link type Ethernet (DLT_EN10MB = 1) is used by this repository, but
// the reader preserves whatever link type the file declares.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

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
	// longer-lived state; Release leaves it alone. See Retain.
	retained bool
	// blk is the read block a PooledReader packet views, until Release.
	blk *block
}

// Retain marks the packet as kept by its consumer: a subsequent Release
// (or Pool.Put) leaves it alone, so Data is never recycled out from
// under references held beyond the packet callback. A retained view into
// a read block pins that whole block for as long as the packet lives.
// Harmless on non-pooled packets.
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

// Reader reads packets from a pcap stream. It reads the stream in large
// blocks straight from the underlying io.Reader and walks the records in
// place; Next and NextInto copy each record out, and a PooledReader
// hands out packets that view the blocks themselves.
type Reader struct {
	r io.Reader
	f recordFormat
	// buf is the block being walked: buf[off:end] has been read from the
	// stream but not yet walked. rerr is the error the stream's last Read
	// returned; it surfaces once the walker needs bytes past end.
	buf      []byte
	off, end int
	rerr     error
	sticky   error
	// blockSize is the size of a read block, derived from the snaplen.
	blockSize int
	// pool is set once a PooledReader owns the reader: blocks then come
	// from the pool (blk is the current one) and packets view them, so
	// the walker never rewrites a block a packet may still view.
	pool *Pool
	blk  *block
}

// NewReader parses the global header from r and returns a Reader. The
// Reader does its own block buffering, so r is best passed unwrapped: a
// bufio.Reader in between only adds a copy.
func NewReader(r io.Reader) (*Reader, error) {
	var gh [globalHeaderLen]byte
	if _, err := io.ReadFull(r, gh[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	f, err := parseGlobalHeader(gh[:])
	if err != nil {
		return nil, err
	}
	return &Reader{r: r, f: f, blockSize: blockSizeFor(f.hdr.SnapLen)}, nil
}

// blockSizeFor sizes read blocks to hold 32 of the trace's largest
// records, within [4 KiB, 256 KiB]. Larger blocks mean fewer Read calls;
// smaller ones cost less when an in-flight packet pins its block, which
// is what keeps a 68-byte-snaplen header trace (D1/D2) at 4 KiB blocks.
// A trace that declares no snaplen gets the largest size.
func blockSizeFor(snaplen uint32) int {
	const minBlock, maxBlock = 4 << 10, 256 << 10
	if snaplen == 0 || snaplen > maxBlock {
		return maxBlock
	}
	return min(max(32*(int(snaplen)+recordHeaderLen), minBlock), maxBlock)
}

// recordFormat is what decoding a record header depends on: the global
// header and its byte order.
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
// io.ErrUnexpectedEOF, which ClassifyReadError counts as a torn record;
// any other stream error is wrapped as it is.
func recordHeaderError(err error) error {
	return fmt.Errorf("pcap: reading record header: %w", unexpectedEOF(err))
}

func recordBodyError(err error) error {
	return fmt.Errorf("pcap: reading packet body: %w", unexpectedEOF(err))
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Header returns the trace's global header fields.
func (r *Reader) Header() Header { return r.f.hdr }

// next is the record walker every reader shares. It returns the next
// record's body as a view into the current block, which stays valid
// until the walker reuses the block: at the next call for Next and
// NextInto, never while a packet views it for a PooledReader. Failures
// are sticky. A clean end of the stream is a bare io.EOF; a record cut
// short, header or body, wraps io.ErrUnexpectedEOF; an incl length over
// the snaplen is a corruption error.
func (r *Reader) next() (ts time.Time, body []byte, orig int, err error) {
	if r.sticky != nil {
		return ts, nil, 0, r.sticky
	}
	if r.end-r.off < recordHeaderLen && !r.fill(recordHeaderLen) {
		if r.off == r.end && r.rerr == io.EOF {
			return ts, nil, 0, r.fail(io.EOF)
		}
		return ts, nil, 0, r.fail(recordHeaderError(r.rerr))
	}
	ts, n, orig, err := r.f.parseRecord((*[recordHeaderLen]byte)(r.buf[r.off:]))
	if err != nil {
		return ts, nil, 0, r.fail(err)
	}
	rec := recordHeaderLen + n
	if r.end-r.off < rec && !r.fill(rec) {
		return ts, nil, 0, r.fail(recordBodyError(r.rerr))
	}
	start := r.off + recordHeaderLen
	r.off += rec
	return ts, r.buf[start:r.off:r.off], orig, nil
}

// fail makes err sticky and lets go of the current block: a pooled
// block goes back to the pool once its last packet is released.
func (r *Reader) fail(err error) error {
	r.sticky = err
	r.buf, r.off, r.end = nil, 0, 0
	if r.blk != nil {
		r.pool.unref(r.blk)
		r.blk = nil
		r.pool.trim()
	}
	return err
}

// maxEmptyReads bounds how many (0, nil) results in a row fill accepts
// before giving up on the stream, as bufio does.
const maxEmptyReads = 100

// fill reads from the stream until at least need bytes are buffered past
// off, making room each time the block is full. It reports false when
// the stream ends or fails first; rerr says how.
func (r *Reader) fill(need int) bool {
	for empty := 0; r.end-r.off < need; {
		if r.rerr != nil {
			return false
		}
		if r.end == len(r.buf) {
			r.makeRoom(need)
		}
		n, err := r.r.Read(r.buf[r.end:])
		r.end += n
		switch {
		case err != nil:
			r.rerr = err
		case n > 0:
			empty = 0
		case empty+1 == maxEmptyReads:
			r.rerr = io.ErrNoProgress
		default:
			empty++
		}
	}
	return true
}

// makeRoom moves the unread bytes to the front of a block with room to
// read more toward need bytes. A copying reader compacts its buffer in
// place when it is large enough. A pooled reader does so only while no
// packet views the block, and the block's packet structs then start
// over; otherwise it moves on to another block and drops its own
// reference to the old one.
func (r *Reader) makeRoom(need int) {
	unread := r.buf[r.off:r.end]
	size := max(need, r.fitRest(len(unread)))
	if need > r.blockSize {
		// A record larger than a block: grow toward it by doubling, so
		// a bogus length in a short input costs no giant allocation.
		size = min(need, max(2*len(unread), r.blockSize))
	}
	switch {
	case r.pool != nil && (len(r.buf) < size || r.blk == nil || r.blk.viewed()):
		old := r.blk
		r.blk = r.pool.getBlock(r.blockSize, size)
		r.buf = r.blk.buf
		copy(r.buf, unread)
		if old != nil {
			r.pool.unref(old)
		}
	case len(r.buf) < size:
		r.buf = make([]byte, size)
		copy(r.buf, unread)
	default:
		copy(r.buf, unread)
		if r.blk != nil {
			r.blk.npkt = 0
		}
	}
	r.end -= r.off
	r.off = 0
}

// fitRest is the size of a block for the rest of the input: the block
// size, or less when the stream can tell (a Len method, as on
// bytes.Reader) that fewer bytes remain, so a small in-memory trace does
// not cost a full block. unread counts the bytes already buffered.
func (r *Reader) fitRest(unread int) int {
	if l, ok := r.r.(interface{ Len() int }); ok && unread+l.Len() < r.blockSize {
		return unread + l.Len()
	}
	return r.blockSize
}

// Next returns the next packet, or io.EOF at a clean end of file. The
// returned Data slice is freshly allocated to the record's exact size
// and owned by the caller; for an allocation-free hot path use a
// PooledReader.
func (r *Reader) Next() (*Packet, error) {
	p := new(Packet)
	if err := r.copyNext(p, 0); err != nil {
		return nil, err
	}
	return p, nil
}

// minDataCap is the smallest Data buffer NextInto allocates: a
// full-size Ethernet frame fits, so a reused packet stops reallocating
// once it has seen one.
const minDataCap = 2048

// NextInto reads the next record into p, copying it into p.Data's
// capacity when it fits, and returns io.EOF at a clean end of file. A
// record cut short by the end of the stream — header or body — yields an
// error wrapping io.ErrUnexpectedEOF. Any previous contents of p are
// overwritten.
func (r *Reader) NextInto(p *Packet) error { return r.copyNext(p, minDataCap) }

// copyNext copies the next record into p, replacing p.Data with a
// buffer of at least minCap bytes when the record does not fit it.
func (r *Reader) copyNext(p *Packet, minCap int) error {
	ts, body, orig, err := r.next()
	if err != nil {
		return err
	}
	if cap(p.Data) < len(body) {
		p.Data = make([]byte, 0, max(len(body), minCap))
	}
	p.Data = append(p.Data[:0], body...)
	p.Timestamp = ts
	p.OrigLen = orig
	p.retained = false
	return nil
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
