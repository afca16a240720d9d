package pcap

import (
	"sync"
	"sync/atomic"
)

// Pool recycles the memory behind pooled packets. It keeps two free
// lists (see DESIGN.md "Allocation model"):
//
//   - Read blocks, for PooledReader. A reader reads the stream into a
//     block and hands out packets whose Data views it; the block comes
//     back to the pool when the reader has moved past it and its last
//     packet is released. A retained packet pins its block: the block
//     is dropped from the pool rather than reused.
//   - Packet structs with their own Data buffers, for sources that
//     build each packet themselves (gen.StreamSource, MapSource): Get
//     hands one out and Put takes it back, unless the consumer called
//     Retain, which permanently exempts that packet.
//
// Both lists are LIFO, so the most recently released memory, the most
// likely still in cache, is handed out next. The packet list never
// shrinks: it holds as many packets as were ever outstanding at once.
// The block list is trimmed each time a reader reaches the end of its
// input, to what was live on average meanwhile (see trim), and blocks
// sized for another trace's snaplen are dropped when a reader asks for
// a different size. A Pool is safe for concurrent use, and several
// sequential readers (one per trace file) may share one.
type Pool struct {
	mu   sync.Mutex
	free []*Packet

	blocks []*block
	stats  BlockStats
	// live counts the blocks out of the pool; liveSum sums it over the
	// gets getBlock calls since the last trim.
	live, liveSum, gets int
}

// BlockStats is a census of a Pool's read blocks. Made − Free − Dropped
// is the number live: held by a reader or viewed by unreleased packets.
type BlockStats struct {
	// Made counts the blocks the pool ever allocated.
	Made int
	// Free counts the blocks on the free list.
	Free int
	// Dropped counts the blocks that left the pool for good: pinned by
	// a retained packet, not pool-sized (one record larger than a
	// block, or the short rest of an input), trimmed, or sized for an
	// earlier trace's snaplen.
	Dropped int
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a packet for reuse. Its Timestamp, Data contents, and
// OrigLen are stale; only Data's capacity is meaningful.
func (pl *Pool) Get() *Packet {
	pl.mu.Lock()
	n := len(pl.free)
	if n == 0 {
		pl.mu.Unlock()
		return new(Packet)
	}
	p := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	pl.mu.Unlock()
	p.retained = false
	return p
}

// Put recycles p and its buffer. Retained and nil packets are left alone.
func (pl *Pool) Put(p *Packet) {
	if p == nil || p.retained {
		return
	}
	pl.mu.Lock()
	pl.free = append(pl.free, p)
	pl.mu.Unlock()
}

// BlockStats returns the pool's block census.
func (pl *Pool) BlockStats() BlockStats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	st := pl.stats
	st.Free = len(pl.blocks)
	return st
}

// block is one read block and the structs of the packets that view it.
type block struct {
	buf []byte
	// refs counts the packets viewing buf that are not yet released,
	// plus one while a reader reads into buf.
	refs atomic.Int32
	// pinned is set when a retained packet viewing buf is released; the
	// block then never returns to the free list.
	pinned atomic.Bool
	// oneOff marks a block that is not pool-sized: one record larger
	// than a block, or the short rest of an input.
	oneOff bool
	// pkts[:npkt] are the packets handed out over buf. The structs sit
	// side by side in read order, which is the order the router fills
	// them and the workers read them.
	pkts []Packet
	npkt int
}

// viewed reports whether any packet still views the block. Only the
// reader holding the block calls it; refs can then only fall.
func (b *block) viewed() bool { return b.refs.Load() > 1 || b.pinned.Load() }

// packet hands out the next packet struct of the block and counts its
// view. When the structs run out, an array twice as large takes over
// from the current index: the packets already handed out keep their
// slots in the old array, and once the block is recycled the larger one
// serves it whole, so the arrays settle at what the densest block needs.
func (b *block) packet() *Packet {
	if b.npkt == len(b.pkts) {
		b.pkts = make([]Packet, max(2*len(b.pkts), 32))
	}
	p := &b.pkts[b.npkt]
	b.npkt++
	b.refs.Add(1)
	return p
}

// getBlock returns a block for a reader to read into, holding the one
// reference: a pooled block of size bytes when want is that size, or a
// one-off block of want bytes otherwise — one record larger than a
// block, or the short rest of an input. Free blocks of another size
// were made for an earlier trace's snaplen and are dropped.
func (pl *Pool) getBlock(size, want int) *block {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.live++
	pl.liveSum += pl.live
	pl.gets++
	if want != size {
		pl.stats.Made++
		b := &block{buf: make([]byte, want), oneOff: true}
		b.refs.Store(1)
		return b
	}
	for n := len(pl.blocks); n > 0; n-- {
		b := pl.blocks[n-1]
		pl.blocks[n-1] = nil
		pl.blocks = pl.blocks[:n-1]
		if len(b.buf) == size {
			b.npkt = 0
			b.refs.Store(1)
			return b
		}
		pl.stats.Dropped++
	}
	pl.stats.Made++
	b := &block{buf: make([]byte, size)}
	b.refs.Store(1)
	return b
}

// unref drops one reference to b. The last one returns b to the free
// list, or drops it when a retained packet pins it or it is a one-off.
func (pl *Pool) unref(b *block) {
	if b.refs.Add(-1) != 0 {
		return
	}
	pl.mu.Lock()
	pl.live--
	if b.pinned.Load() || b.oneOff {
		pl.stats.Dropped++
	} else {
		pl.blocks = append(pl.blocks, b)
	}
	pl.mu.Unlock()
}

// trim is called when a reader reaches the end of its input. It keeps
// the pool at the number of blocks live on average since the last trim
// (sampled at each getBlock): free blocks beyond that, less the blocks
// still live, are dropped. A pool shared by a sequence of traces so
// holds what the latest trace used in the common case; the blocks a
// peak needs beyond that are allocated when it comes and left to the
// garbage collector after.
func (pl *Pool) trim() {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	keep := 0
	if pl.gets > 0 {
		keep = max(pl.liveSum/pl.gets-pl.live, 0)
	}
	for len(pl.blocks) > keep {
		n := len(pl.blocks)
		pl.blocks[n-1] = nil
		pl.blocks = pl.blocks[:n-1]
		pl.stats.Dropped++
	}
	pl.liveSum, pl.gets = 0, 0
}

// Releaser is implemented by packet sources whose packets are recycled:
// the consumer must hand each packet back via Release once it is done
// with it, unless it called Retain to keep references into the packet's
// Data. Sources that do not implement Releaser allocate per packet, and
// their packets are owned by the consumer indefinitely.
type Releaser interface {
	Release(*Packet)
}

// PooledReader adapts a Reader to a pooled PacketSource, the
// zero-allocation, zero-copy way to stream a trace through the
// pipeline. The Reader reads the stream into blocks drawn from a Pool,
// and Next hands out packets whose Data is a view into the current
// block: no record is copied after the stream's Read. A block returns
// to the pool once the reader has moved past it and every packet that
// views it is released.
type PooledReader struct {
	r    *Reader
	pool *Pool
}

// NewPooledReader returns a pooled source over r. A nil pool gets a
// private one; passing a shared pool lets several sequential readers
// (e.g. one per trace file) reuse the same blocks. Bytes r has already
// buffered move into a pool block, so r must not be read directly
// afterwards.
func NewPooledReader(r *Reader, pool *Pool) *PooledReader {
	if pool == nil {
		pool = NewPool()
	}
	r.pool = pool
	if r.buf != nil {
		r.makeRoom(r.end - r.off)
	}
	return &PooledReader{r: r, pool: pool}
}

// Next implements PacketSource. The returned packet's Data views a read
// block and is valid until Release; callers keeping slices into it must
// call Retain first, which pins the whole block.
func (s *PooledReader) Next() (*Packet, error) {
	ts, body, orig, err := s.r.next()
	if err != nil {
		return nil, err
	}
	b := s.r.blk
	p := b.packet()
	*p = Packet{Timestamp: ts, Data: body, OrigLen: orig, blk: b}
	return p, nil
}

// Release implements Releaser. Like MapSource, it poisons the packet —
// Data nil, fields zeroed — since Data is a view that would otherwise
// go on reading whatever record the block holds next; a use after
// release fails loudly. A retained packet keeps its view and pins the
// block instead. The last release of a block the reader has moved past
// returns it to the pool. Safe to call from any goroutine; the pipeline
// calls it from its router, when a worker hands the packet's batch
// back. Packets released already are ignored.
func (s *PooledReader) Release(p *Packet) {
	b := p.blk
	if b == nil {
		return
	}
	if p.retained {
		p.blk = nil
		b.pinned.Store(true)
	} else {
		*p = Packet{}
	}
	s.pool.unref(b)
}
