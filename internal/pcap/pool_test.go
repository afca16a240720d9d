package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"
)

// writeTestTrace serializes n packets with recognizable payloads and
// returns the raw trace bytes plus the expected packets.
func writeTestTrace(t testing.TB, n int) ([]byte, []*Packet) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0, LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	var want []*Packet
	for i := 0; i < n; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 20+i%64)
		stamp := ts(1000+int64(i), int64(i))
		if err := w.WritePacket(stamp, data); err != nil {
			t.Fatal(err)
		}
		want = append(want, &Packet{Timestamp: stamp, Data: data, OrigLen: len(data)})
	}
	return buf.Bytes(), want
}

func TestNextIntoReusesBuffer(t *testing.T) {
	raw, want := writeTestTrace(t, 50)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	var firstCap int
	for i := 0; ; i++ {
		err := r.NextInto(&p)
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("read %d packets, want %d", i, len(want))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Data, want[i].Data) {
			t.Fatalf("packet %d data mismatch", i)
		}
		if !p.Timestamp.Equal(want[i].Timestamp) {
			t.Fatalf("packet %d timestamp = %v, want %v", i, p.Timestamp, want[i].Timestamp)
		}
		if i == 0 {
			firstCap = cap(p.Data)
		} else if cap(p.Data) != firstCap {
			// All test records fit the power-of-two floor, so the first
			// allocation must be the only one.
			t.Fatalf("packet %d reallocated: cap %d, first cap %d", i, cap(p.Data), firstCap)
		}
	}
}

func TestNextIntoGrowsUndersizedBuffer(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0, LinkTypeEthernet)
	big := bytes.Repeat([]byte{0xEE}, 5000)
	if err := w.WritePacket(ts(1, 0), big); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p := Packet{Data: make([]byte, 0, 16)}
	if err := r.NextInto(&p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Data, big) {
		t.Fatal("grown buffer lost data")
	}
}

func TestPoolRecyclesUnretained(t *testing.T) {
	pool := NewPool()
	p := pool.Get()
	p.Data = append(p.Data[:0], 1, 2, 3)
	pool.Put(p)
	// The free list is LIFO: Get after Put returns the same packet.
	q := pool.Get()
	if q != p {
		t.Fatal("pool did not recycle the released packet")
	}
	if q.Retained() {
		t.Error("recycled packet still marked retained")
	}
}

func TestPoolRetainExemptsPacket(t *testing.T) {
	pool := NewPool()
	p := pool.Get()
	p.Data = append(p.Data[:0], 42)
	p.Retain()
	pool.Put(p) // must be a no-op
	if q := pool.Get(); q == p {
		t.Fatal("retained packet was recycled")
	}
	if p.Data[0] != 42 {
		t.Fatal("retained packet data clobbered")
	}
}

func TestPooledReaderMatchesNext(t *testing.T) {
	raw, want := writeTestTrace(t, 40)
	src := NewPooledReader(mustReader(t, raw), nil)
	for i := 0; ; i++ {
		p, err := src.Next()
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("read %d packets, want %d", i, len(want))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Data, want[i].Data) || !p.Timestamp.Equal(want[i].Timestamp) || p.OrigLen != want[i].OrigLen {
			t.Fatalf("packet %d mismatch: %+v", i, p)
		}
		src.Release(p)
	}
}

// TestPooledReaderRetainSurvivesReuse is the Retain contract end to end:
// a retained packet's bytes must survive arbitrarily many subsequent
// reads through the same pool, while released packets may be recycled.
func TestPooledReaderRetainSurvivesReuse(t *testing.T) {
	raw, want := writeTestTrace(t, 60)
	src := NewPooledReader(mustReader(t, raw), nil)
	kept := map[int][]byte{}
	for i := 0; ; i++ {
		p, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			p.Retain()
			kept[i] = p.Data
		}
		src.Release(p)
	}
	for i, data := range kept {
		if !bytes.Equal(data, want[i].Data) {
			t.Errorf("retained packet %d corrupted by pool reuse", i)
		}
	}
}

// snapTrace serializes n packets of 40..1499 bytes under the given
// snaplen, so records longer than the snaplen are truncated on write.
// snaplen 0 is written into the header as is (NewWriter would turn it
// into 65535): a header that declares no limit.
func snapTrace(t testing.TB, snaplen uint32, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, snaplen, LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 40+i*37%1460)
		if err := w.WritePacket(ts(1000+int64(i), int64(i)), data); err != nil {
			t.Fatal(err)
		}
	}
	raw := buf.Bytes()
	if snaplen == 0 {
		binary.LittleEndian.PutUint32(raw[16:20], 0)
	}
	return raw
}

// TestPoolReusedAcrossSnaplens reads a snaplen-68 trace and then a
// snaplen-1500 trace through one shared Pool — the second trace's
// records outgrow the first's 68-byte buffers — and checks both yield
// the packets fresh pools do. Packets are released in bursts, so many
// buffers cycle.
func TestPoolReusedAcrossSnaplens(t *testing.T) {
	traces := [][]byte{snapTrace(t, 68, 300), snapTrace(t, 1500, 300)}
	read := func(raw []byte, pool *Pool) []Packet {
		src := NewPooledReader(mustReader(t, raw), pool)
		var out []Packet
		var held []*Packet
		for {
			p, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, Packet{Timestamp: p.Timestamp, Data: bytes.Clone(p.Data), OrigLen: p.OrigLen})
			if held = append(held, p); len(held) == 16 {
				for _, h := range held {
					src.Release(h)
				}
				held = held[:0]
			}
		}
		for _, h := range held {
			src.Release(h)
		}
		return out
	}
	shared := NewPool()
	for ti, raw := range traces {
		got, want := read(raw, shared), read(raw, nil)
		if len(got) != len(want) {
			t.Fatalf("trace %d: %d packets through the shared pool, %d through a fresh one", ti, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i].Data, want[i].Data) || !got[i].Timestamp.Equal(want[i].Timestamp) || got[i].OrigLen != want[i].OrigLen {
				t.Fatalf("trace %d packet %d differs through the shared pool", ti, i)
			}
		}
	}
}

func mustReader(t testing.TB, raw []byte) *Reader {
	t.Helper()
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReadAllTruncatedFinalRecord pins the mid-record-truncation
// contract: the packets before the cut are returned, and the error wraps
// io.ErrUnexpectedEOF whether the cut lands in the record body or the
// record header.
func TestReadAllTruncatedFinalRecord(t *testing.T) {
	raw, want := writeTestTrace(t, 5)
	lastBody := 20 + 4%64 // length of the final packet's body
	for name, cut := range map[string]int{
		"mid-body":   3,            // strips part of the last body
		"whole-body": lastBody,     // strips exactly the last body
		"mid-header": lastBody + 7, // leaves a partial record header
	} {
		t.Run(name, func(t *testing.T) {
			r := mustReader(t, raw[:len(raw)-cut])
			pkts, err := r.ReadAll()
			if err == nil {
				t.Fatal("truncated trace read without error")
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("err = %v, want wrapped io.ErrUnexpectedEOF", err)
			}
			if len(pkts) != len(want)-1 {
				t.Fatalf("got %d packets before the cut, want %d", len(pkts), len(want)-1)
			}
			for i, p := range pkts {
				if !bytes.Equal(p.Data, want[i].Data) {
					t.Errorf("packet %d data mismatch", i)
				}
			}
		})
	}
}

// TestBufferedReaderWrap verifies NewReader still parses correctly when
// handed a reader with no internal buffering (the wrap path).
func TestBufferedReaderWrap(t *testing.T) {
	raw, want := writeTestTrace(t, 10)
	r, err := NewReader(onlyReader{bytes.NewReader(raw)})
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != len(want) {
		t.Fatalf("read %d packets, want %d", len(pkts), len(want))
	}
}

// onlyReader hides every interface except io.Reader.
type onlyReader struct{ r io.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

// BenchmarkReadPacketPooled is the pooled counterpart of
// BenchmarkReadPacket: steady-state reads must not allocate.
func BenchmarkReadPacketPooled(b *testing.B) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0, LinkTypeEthernet)
	data := bytes.Repeat([]byte{0x5A}, 1400)
	for i := 0; i < 1000; i++ {
		_ = w.WritePacket(time.Unix(int64(i), 0), data)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	src := NewPooledReader(mustReader(b, raw), nil)
	for i := 0; i < b.N; i++ {
		p, err := src.Next()
		if err == io.EOF {
			src = NewPooledReader(mustReader(b, raw), src.pool)
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		src.Release(p)
	}
}
