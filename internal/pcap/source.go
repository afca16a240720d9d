package pcap

import "io"

// PacketSource yields packets in timestamp order, ending with io.EOF. Both
// *Reader and in-memory traces satisfy it.
type PacketSource interface {
	Next() (*Packet, error)
}

// SliceSource adapts an in-memory packet slice to PacketSource.
type SliceSource struct {
	pkts []*Packet
	idx  int
}

// NewSliceSource returns a source over pkts; the slice is not copied and
// must already be in timestamp order.
func NewSliceSource(pkts []*Packet) *SliceSource { return &SliceSource{pkts: pkts} }

// Next implements PacketSource.
func (s *SliceSource) Next() (*Packet, error) {
	if s.idx >= len(s.pkts) {
		return nil, io.EOF
	}
	p := s.pkts[s.idx]
	s.idx++
	return p, nil
}

// ReadAll drains any PacketSource into a slice.
func ReadAll(src PacketSource) ([]*Packet, error) {
	var pkts []*Packet
	for {
		p, err := src.Next()
		if err == io.EOF {
			return pkts, nil
		}
		if err != nil {
			return pkts, err
		}
		pkts = append(pkts, p)
	}
}
