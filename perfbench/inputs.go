package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
	"enttrace/internal/pcap"
)

// traceFile is one cached pcap input and what the generator put in it.
type traceFile struct {
	Name    string `json:"name"`
	Prefix  string `json:"prefix"`
	Packets int64  `json:"packets"`
	Bytes   int64  `json:"bytes"`
	// Site is the fleet site that analyzes the file (fleet-window only).
	Site string `json:"site,omitempty"`

	prefix netip.Prefix
	path   string
}

// manifest sits next to a workload's cached files. It is written last,
// so a directory without one is an interrupted synthesis and is redone.
type manifest struct {
	Workload string  `json:"workload"`
	Dataset  string  `json:"dataset"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
	Snaplen  uint32  `json:"snaplen"`
	// WindowOrigin is the earliest first-packet timestamp over all files:
	// the fleet's shared window clock.
	WindowOrigin time.Time   `json:"window_origin"`
	Files        []traceFile `json:"files"`
	Packets      int64       `json:"packets"`
	Bytes        int64       `json:"bytes"`
	// SynthSeconds is information only: synthesis is the generator's
	// cost, never the program's, and happens outside every timed region.
	SynthSeconds float64 `json:"synth_seconds"`
}

// keepSeeds bounds the disk the cache uses: each workload keeps the
// inputs of this many most recently used seeds.
const keepSeeds = 2

// genJob is one trace to synthesize.
type genJob struct {
	name   string
	site   string
	subnet int
	tap    int
	// block, when set, generates the subnet as its own self-contained
	// network, as the fleet workload's blocks are.
	block bool
}

// loadInputs returns the workload's cached inputs for seed, synthesizing
// them first when the cache lacks them.
func loadInputs(root string, wl workload, seed int64) (*manifest, error) {
	dir := filepath.Join(root, "inputs", fmt.Sprintf("%s-seed%d", wl.name, seed))
	m, err := readManifest(dir)
	if err != nil {
		if m, err = synthesize(dir, wl, seed); err != nil {
			return nil, err
		}
	}
	now := time.Now()
	os.Chtimes(filepath.Join(dir, "manifest.json"), now, now) // LRU stamp; best effort
	evictSeeds(filepath.Join(root, "inputs"), wl.name, dir)
	for i := range m.Files {
		f := &m.Files[i]
		f.path = filepath.Join(dir, f.Name)
		if f.prefix, err = netip.ParsePrefix(f.Prefix); err != nil {
			return nil, fmt.Errorf("manifest %s: %w", dir, err)
		}
		st, err := os.Stat(f.path)
		if err != nil {
			return nil, err
		}
		if st.Size() != f.Bytes {
			return nil, fmt.Errorf("cached input %s is %d bytes, manifest says %d", f.path, st.Size(), f.Bytes)
		}
	}
	return m, nil
}

func readManifest(dir string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	m := &manifest{}
	if err := json.Unmarshal(b, m); err != nil {
		return nil, err
	}
	return m, nil
}

func synthesize(dir string, wl workload, seed int64) (*manifest, error) {
	start := time.Now()
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := wl.dataset()
	cfg.Seed = seed
	cfg.Scale = 1.0

	var jobs []genJob
	for i, subnet := range cfg.Monitored {
		if wl.fleet {
			site := "site-a"
			if i >= len(cfg.Monitored)/2 {
				site = "site-b"
			}
			jobs = append(jobs, genJob{name: fmt.Sprintf("%s-block%02d.pcap", cfg.Name, subnet), site: site, subnet: subnet, block: true})
			continue
		}
		for tap := 0; tap < cfg.PerTap; tap++ {
			jobs = append(jobs, genJob{name: fmt.Sprintf("%s-subnet%02d-tap%d.pcap", cfg.Name, subnet, tap), subnet: subnet, tap: tap})
		}
	}

	files := make([]traceFile, len(jobs))
	firsts := make([]time.Time, len(jobs))
	errs := make([]error, len(jobs))
	net := enterprise.NewNetwork(cfg)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				files[i], firsts[i], errs[i] = genFile(dir, cfg, net, jobs[i])
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	m := &manifest{Workload: wl.name, Dataset: cfg.Name, Seed: seed, Scale: cfg.Scale, Snaplen: cfg.Snaplen, Files: files}
	for i, f := range files {
		if errs[i] != nil {
			return nil, errs[i]
		}
		m.Packets += f.Packets
		m.Bytes += f.Bytes
		if ts := firsts[i]; !ts.IsZero() && (m.WindowOrigin.IsZero() || ts.Before(m.WindowOrigin)) {
			m.WindowOrigin = ts
		}
	}
	m.SynthSeconds = time.Since(start).Seconds()
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(dir, "manifest.json.tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return nil, err
	}
	return m, os.Rename(tmp, filepath.Join(dir, "manifest.json"))
}

// genFile synthesizes one trace and writes it as a pcap file, returning
// its manifest row and first-packet timestamp.
func genFile(dir string, cfg enterprise.Config, net *enterprise.Network, j genJob) (traceFile, time.Time, error) {
	var pkts []*pcap.Packet
	if j.block {
		c := cfg
		c.Monitored = []int{j.subnet}
		pkts = gen.GenerateDataset(c).Traces[0].Packets
	} else {
		pkts = gen.GenerateTrace(net, j.subnet, j.tap)
	}
	tf := traceFile{Name: j.name, Site: j.site, Prefix: enterprise.SubnetPrefix(j.subnet).String(), Packets: int64(len(pkts))}
	path := filepath.Join(dir, j.name)
	f, err := os.Create(path)
	if err != nil {
		return tf, time.Time{}, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	// WriteTrace truncates to the dataset snaplen, as the capture
	// hardware (and GenerateDataset) would.
	err = gen.WriteTrace(bw, cfg, gen.Trace{Packets: pkts})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return tf, time.Time{}, fmt.Errorf("writing %s: %w", path, err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return tf, time.Time{}, err
	}
	tf.Bytes = st.Size()
	var first time.Time
	if len(pkts) > 0 {
		first = pkts[0].Timestamp
	}
	return tf, first, nil
}

// evictSeeds removes the workload's cached inputs beyond the keepSeeds
// most recently used, never the one in use.
func evictSeeds(inputs, workload, inUse string) {
	dirs, _ := filepath.Glob(filepath.Join(inputs, workload+"-seed*"))
	type aged struct {
		dir string
		t   time.Time
	}
	var all []aged
	for _, d := range dirs {
		var t time.Time
		if st, err := os.Stat(filepath.Join(d, "manifest.json")); err == nil {
			t = st.ModTime()
		}
		all = append(all, aged{d, t})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].t.After(all[j].t) })
	kept := 1 // the one in use
	for _, a := range all {
		switch {
		case a.dir == inUse:
		case kept < keepSeeds && !a.t.IsZero():
			kept++
		default:
			os.RemoveAll(a.dir)
		}
	}
}
