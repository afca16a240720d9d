package core

import (
	"net/netip"
	"reflect"
	"testing"

	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
	"enttrace/internal/layers"
)

// TestHostCensusMatchesPerPacketReference pins the host census against
// a reference the test takes itself from every decodable packet's
// network addresses. The shard sink records a connection's endpoints
// once, at its first packet, and only packets outside any connection
// per packet; the monitored, local and remote sets must come out the
// same over a small D3 and every evasion scenario, at one worker and
// several.
func TestHostCensusMatchesPerPacketReference(t *testing.T) {
	cfg := enterprise.D3()
	cfg.Scale = 0.05
	cfg.Monitored = []int{2, enterprise.SubnetPrint}
	inputs := []struct {
		name   string
		traces []gen.Trace
	}{{"d3", gen.GenerateDataset(cfg).Traces}}
	for _, sc := range gen.EvasionScenarios() {
		inputs = append(inputs, struct {
			name   string
			traces []gen.Trace
		}{sc.Name, []gen.Trace{sc.Build()}})
	}
	for _, in := range inputs {
		mon := make(map[netip.Addr]struct{})
		local := make(map[netip.Addr]struct{})
		remote := make(map[netip.Addr]struct{})
		noConn := 0
		var p layers.Packet
		for _, tr := range in.traces {
			record := func(addr netip.Addr) {
				if !addr.IsValid() || addr.IsMulticast() {
					return
				}
				switch {
				case tr.Prefix.Contains(addr):
					mon[addr] = struct{}{}
					local[addr] = struct{}{}
				case enterprise.IsLocal(addr):
					local[addr] = struct{}{}
				default:
					remote[addr] = struct{}{}
				}
			}
			for _, pk := range tr.Packets {
				if layers.Decode(pk.Data, pk.OrigLen, &p) != nil {
					continue
				}
				if _, ok := layers.FlowKeyOf(&p); !ok {
					noConn++
				}
				if src, ok := p.NetSrc(); ok {
					record(src)
				}
				if dst, ok := p.NetDst(); ok {
					record(dst)
				}
			}
		}
		if in.name == "d3" && (noConn == 0 || len(mon) == 0 || len(remote) == 0) {
			t.Fatalf("d3: reference covers %d packets outside connections, %d monitored, %d remote hosts",
				noConn, len(mon), len(remote))
		}
		for _, workers := range []int{1, 4} {
			a := NewAnalyzer(Options{
				Dataset:         in.name,
				KnownScanners:   enterprise.KnownScanners(),
				PayloadAnalysis: true,
				Workers:         workers,
			})
			for _, tr := range in.traces {
				if err := a.AddTrace(TraceInput{Name: tr.Prefix.String(), Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range []struct {
				name      string
				got, want map[netip.Addr]struct{}
			}{
				{"monitored", a.cum.monitoredHosts, mon},
				{"local", a.cum.localHosts, local},
				{"remote", a.cum.remoteHosts, remote},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Errorf("%s workers=%d: %s hosts: %d recorded, reference %d",
						in.name, workers, c.name, len(c.got), len(c.want))
				}
			}
			t1 := a.Report().Table1
			if t1.MonitoredHosts != len(mon) || t1.LocalHosts != len(local) || t1.RemoteHosts != len(remote) {
				t.Errorf("%s workers=%d: Table 1 hosts %d/%d/%d, reference %d/%d/%d", in.name, workers,
					t1.MonitoredHosts, t1.LocalHosts, t1.RemoteHosts, len(mon), len(local), len(remote))
			}
		}
	}
}
