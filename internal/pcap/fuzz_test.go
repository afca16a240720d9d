package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzReaderMatchesMapSource feeds the same bytes to the streaming
// Reader and the zero-copy MapSource. They must agree on whether the
// global header parses, then record for record: the same packets, the
// same point and wording of failure, the same ClassifyReadError kind,
// or io.EOF on both.
func FuzzReaderMatchesMapSource(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 96, LinkTypeEthernet)
	if err != nil {
		f.Fatal(err)
	}
	for i, p := range [][]byte{{}, {0xde, 0xad, 0xbe, 0xef}, bytes.Repeat([]byte{0xab}, 1500)} {
		if err := w.WritePacket(ts(1000+int64(i), 250), p); err != nil {
			f.Fatal(err)
		}
	}
	raw := buf.Bytes()
	f.Add(raw)
	// Torn body, torn record header, and a header one byte short.
	for _, drop := range []int{2, 96 + 2, 96 + 16 - 1} {
		f.Add(raw[:len(raw)-drop])
	}
	oversize := bytes.Clone(raw)
	binary.LittleEndian.PutUint32(oversize[globalHeaderLen+8:], 5000)
	f.Add(oversize)
	f.Add(raw[:globalHeaderLen])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		r, rerr := NewReader(bytes.NewReader(raw))
		m, merr := NewMapSource(raw)
		if (rerr == nil) != (merr == nil) || errors.Is(rerr, ErrBadMagic) != errors.Is(merr, ErrBadMagic) {
			t.Fatalf("global header: Reader err %v, MapSource err %v", rerr, merr)
		}
		if rerr != nil {
			return
		}
		if r.Header() != m.Header() {
			t.Fatalf("header: Reader %+v, MapSource %+v", r.Header(), m.Header())
		}
		var p Packet
		for i := 0; ; i++ {
			rerr := r.NextInto(&p)
			mp, merr := m.Next()
			if rerr == io.EOF && merr == io.EOF {
				return
			}
			if rerr != nil || merr != nil {
				if rerr == nil || merr == nil || rerr.Error() != merr.Error() {
					t.Fatalf("record %d: Reader err %v, MapSource err %v", i, rerr, merr)
				}
				rk, rrec := ClassifyReadError(rerr)
				mk, mrec := ClassifyReadError(merr)
				if rk != mk || rrec != mrec {
					t.Fatalf("record %d: Reader kind (%s, %v), MapSource kind (%s, %v)", i, rk, rrec, mk, mrec)
				}
				return
			}
			if !p.Timestamp.Equal(mp.Timestamp) || p.OrigLen != mp.OrigLen || !bytes.Equal(p.Data, mp.Data) {
				t.Fatalf("record %d: Reader {%v %d %x}, MapSource {%v %d %x}",
					i, p.Timestamp, p.OrigLen, p.Data, mp.Timestamp, mp.OrigLen, mp.Data)
			}
			m.Release(mp)
		}
	})
}
