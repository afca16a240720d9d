package pcap

import "sync"

// Pool recycles Packet structs together with their Data buffers. The
// hot-path contract (see DESIGN.md "Allocation model"):
//
//   - Get hands out a packet whose fields are stale; fill it with
//     Reader.NextInto before use.
//   - Put returns the packet and its buffer for reuse — unless the
//     consumer called Retain, which permanently exempts that packet
//     because slices into its Data have escaped into longer-lived state.
//   - Buffers grow to the trace's largest record (capped at its
//     snaplen) and then stabilize, so a steady-state read loop performs
//     no per-packet allocation.
//
// The pool is a LIFO free list: the most recently released buffer, the
// one most likely still in cache, is handed out next. It never shrinks,
// so it holds as many packets as were ever outstanding at once — for
// the pipeline, the in-flight bound its router enforces. A Pool is safe
// for concurrent use, though the pipeline calls Get and Put from one
// goroutine: its router both reads packets and releases them when a
// worker hands their batch back.
type Pool struct {
	mu   sync.Mutex
	free []*Packet
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

// Releaser is implemented by packet sources whose packets are recycled:
// the consumer must hand each packet back via Release once it is done
// with it, unless it called Retain to keep references into the packet's
// Data. Sources that do not implement Releaser allocate per packet, and
// their packets are owned by the consumer indefinitely.
type Releaser interface {
	Release(*Packet)
}

// PooledReader adapts a Reader to a pooled PacketSource: Next draws
// packets from a Pool and NextInto, and Release returns them. It is the
// zero-allocation way to stream a trace through the pipeline.
type PooledReader struct {
	r    *Reader
	pool *Pool
}

// NewPooledReader returns a pooled source over r. A nil pool gets a
// private one; passing a shared pool lets several sequential readers
// (e.g. one per trace file) reuse the same buffers.
func NewPooledReader(r *Reader, pool *Pool) *PooledReader {
	if pool == nil {
		pool = NewPool()
	}
	return &PooledReader{r: r, pool: pool}
}

// Next implements PacketSource. The returned packet is valid until
// Release; callers keeping slices into its Data must call Retain first.
func (s *PooledReader) Next() (*Packet, error) {
	p := s.pool.Get()
	if err := s.r.NextInto(p); err != nil {
		s.pool.Put(p)
		return nil, err
	}
	return p, nil
}

// Release implements Releaser, returning p to the pool (a no-op for
// retained packets). Safe to call from any goroutine; the pipeline
// calls it from its router, when a worker hands the packet's batch
// back.
func (s *PooledReader) Release(p *Packet) { s.pool.Put(p) }
