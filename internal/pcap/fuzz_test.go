package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
)

// FuzzReaderMatchesMapSource feeds the same bytes to the streaming
// Reader, the zero-copy MapSource and the pooled reader. They must agree
// on whether the global header parses, then record for record: the same
// packets, the same point and wording of failure, the same
// ClassifyReadError kind, or io.EOF on all three. The pooled reader
// reads through short-read wrappers with tiny blocks, so records
// straddle blocks and some are larger than a block.
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

	wraps := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"data-err", iotest.DataErrReader},
	}
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
		var want []Packet
		var wantErr error
		for {
			var p Packet
			if wantErr = r.NextInto(&p); wantErr != nil {
				break
			}
			want = append(want, p)
		}
		matchRecords(t, "MapSource", want, wantErr, m.Next, m.Release, 0)

		pool := NewPool()
		for _, wr := range wraps {
			for _, size := range []int{recordHeaderLen + 4, 64} {
				rd, err := NewReader(wr.wrap(bytes.NewReader(raw)))
				if err != nil {
					t.Fatalf("%s: global header: %v", wr.name, err)
				}
				rd.blockSize = size
				src := NewPooledReader(rd, pool)
				matchRecords(t, fmt.Sprintf("PooledReader %s/%d", wr.name, size), want, wantErr, src.Next, src.Release, 3)
			}
		}
		if st := pool.BlockStats(); st.Made != st.Free+st.Dropped {
			t.Fatalf("blocks not all back after the pooled reads: %+v", st)
		}
	})
}

// matchRecords drains next and checks it yields want and then fails
// like wantErr: the same wording and ClassifyReadError kind, or a bare
// io.EOF. It holds up to hold packets before releasing the oldest, and
// checks each still reads its own bytes when released and is poisoned
// after.
func matchRecords(t *testing.T, name string, want []Packet, wantErr error, next func() (*Packet, error), release func(*Packet), hold int) {
	t.Helper()
	var held []*Packet
	var heldIdx []int
	drop := func() {
		p, i := held[0], heldIdx[0]
		held, heldIdx = held[1:], heldIdx[1:]
		if !bytes.Equal(p.Data, want[i].Data) {
			t.Fatalf("%s: record %d changed before its release: %x, want %x", name, i, p.Data, want[i].Data)
		}
		release(p)
		if p.Data != nil {
			t.Fatalf("%s: record %d not poisoned by its release", name, i)
		}
	}
	for i := 0; ; i++ {
		p, err := next()
		if err != nil {
			if wantErr == io.EOF && err == io.EOF {
				break
			}
			if wantErr == io.EOF || err == io.EOF || err.Error() != wantErr.Error() {
				t.Fatalf("record %d: Reader err %v, %s err %v", i, wantErr, name, err)
			}
			rk, rrec := ClassifyReadError(wantErr)
			mk, mrec := ClassifyReadError(err)
			if rk != mk || rrec != mrec {
				t.Fatalf("record %d: Reader kind (%s, %v), %s kind (%s, %v)", i, rk, rrec, name, mk, mrec)
			}
			break
		}
		if i >= len(want) {
			t.Fatalf("record %d: %s yields a record past the Reader's end", i, name)
		}
		w := want[i]
		if !p.Timestamp.Equal(w.Timestamp) || p.OrigLen != w.OrigLen || !bytes.Equal(p.Data, w.Data) {
			t.Fatalf("record %d: Reader {%v %d %x}, %s {%v %d %x}",
				i, w.Timestamp, w.OrigLen, w.Data, name, p.Timestamp, p.OrigLen, p.Data)
		}
		held, heldIdx = append(held, p), append(heldIdx, i)
		if len(held) > hold {
			drop()
		}
	}
	for len(held) > 0 {
		drop()
	}
}
