package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself carries no tracing).
type span struct {
	ID int `json:"id"`
	// Phase names the pass kind ("timed", "read", "one-worker", ...);
	// Run numbers the passes.
	Phase  string  `json:"phase"`
	Run    int     `json:"run"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	// Async marks a span off its parent's blocking path (a poller query,
	// an aggregator-side apply): it overlaps the parent rather than
	// adding to it, so it is neither part of the parent's children sum
	// nor of the ledger residual.
	Async bool `json:"async,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op returning -1.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	phase string
	run   int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at is an instant as ms since the tracer started.
func (t *tracer) at(when time.Time) float64 { return float64(when.Sub(t.epoch)) / 1e6 }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Phase: t.phase, Run: t.run, Parent: parent, Name: name, Start: t.at(now)})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = t.at(now)
	t.mu.Unlock()
}

// record adds an already-timed span; async marks one that overlaps its
// parent instead of blocking it.
func (t *tracer) record(name string, parent int, start, end time.Time, async bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Phase: t.phase, Run: t.run, Parent: parent, Name: name, Start: t.at(start), End: t.at(end), Async: async})
	t.mu.Unlock()
}

// startRun numbers a new pass of the given phase.
func (t *tracer) startRun(phase string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phase = phase
	t.run++
	t.mu.Unlock()
}

// durations returns the durations in ms of the phase's spans named name.
func (t *tracer) durations(phase, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Phase == phase && s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// perRun sums the phase's spans named name within each run, in run order.
func (t *tracer) perRun(phase, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var runs []int
	by := make(map[int]float64)
	for _, s := range t.spans {
		if s.Phase == phase && s.Name == name {
			if _, ok := by[s.Run]; !ok {
				runs = append(runs, s.Run)
			}
			by[s.Run] += s.End - s.Start
		}
	}
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = by[r]
	}
	return out
}

// selfTimes sums each phase/name's self time: its duration minus the part
// of it that its blocking children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 && !s.Async {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Phase+"/"+s.Name] += (s.End - s.Start) - covered(kids[s.ID])
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) float64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	total, reach := 0.0, math.Inf(-1)
	for _, s := range ss {
		lo := math.Max(s.Start, reach)
		if s.End > lo {
			total += s.End - lo
		}
		reach = math.Max(reach, s.End)
	}
	return total
}

// residual returns, over the phase's spans named root, the wall time
// their blocking children do not account for, and the roots' total wall.
func (t *tracer) residual(phase, root string) (gap, wall float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent >= 0 && !s.Async {
			kids[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if s.Phase == phase && s.Name == root {
			wall += s.End - s.Start
			gap += (s.End - s.Start) - kids[s.ID]
		}
	}
	return gap, wall
}

// quantile is the linear-interpolation q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// sampler polls the heap (and an optional gauge) through the timed
// region, keeping the heap's peak and time average and the gauge's peak.
type sampler struct {
	stop     chan struct{}
	done     chan struct{}
	once     sync.Once
	peakHeap uint64
	heapSum  float64
	heapN    int
	peakLive int64
}

// sampleEvery is the sampler's period.
const sampleEvery = time.Millisecond

func startSampler(live func() int64) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		m := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(m)
			v := m[0].Value.Uint64()
			s.peakHeap = max(s.peakHeap, v)
			s.heapSum += float64(v)
			s.heapN++
			if live != nil {
				s.peakLive = max(s.peakLive, live())
			}
			select {
			case <-tick.C:
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it; the readings are final
// after. Calling it again is harmless.
func (s *sampler) finish() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// meanHeap is the time-averaged heap over the sampled region.
func (s *sampler) meanHeap() float64 { return s.heapSum / float64(s.heapN) }

// runtimeStats is a snapshot of the process counters the runtime metrics
// are differences of.
type runtimeStats struct {
	allocs, allocBytes, gcCycles uint64
	cpu                          time.Duration
}

func readRuntime() runtimeStats {
	m := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(m)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return runtimeStats{
		allocs:     m[0].Value.Uint64(),
		allocBytes: m[1].Value.Uint64(),
		gcCycles:   m[2].Value.Uint64(),
		cpu:        cpu,
	}
}

// sub is the change from o to r.
func (r runtimeStats) sub(o runtimeStats) runtimeStats {
	return runtimeStats{
		allocs:     r.allocs - o.allocs,
		allocBytes: r.allocBytes - o.allocBytes,
		gcCycles:   r.gcCycles - o.gcCycles,
		cpu:        r.cpu - o.cpu,
	}
}
