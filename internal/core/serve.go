package core

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ReportServer exposes a long-running analysis — one Analyzer, or a
// fleet aggregation — over HTTP:
//
//	GET /healthz            — liveness plus progress; the document is the
//	                          source's own (see NewReportServer and
//	                          NewFleetServer)
//	GET /report/latest      — the most recent window, JSON
//	GET /report/window/<n>  — window n (0-based), JSON
//	GET /report/final       — the cumulative report, once it stops
//	                          changing (404 before that)
//
// Window endpoints are live views: they reflect everything banked or
// delivered so far, while analysis is still streaming. They require a
// windowed source; without windowing only /healthz and /report/final
// respond.
type ReportServer struct {
	src reportSource
	mux *http.ServeMux

	// finalJSON is written once by SetFinal (on the analysis goroutine)
	// and read by handlers; atomic, since the two race by design.
	finalJSON atomic.Pointer[[]byte]
	draining  atomic.Bool

	// stallAfter is how long /healthz lets progress sit still — an
	// analyzer's (packets, watermark) signature, a fleet site's
	// deliveries — before reporting degraded: a stuck source looks
	// healthy to every other probe, since the process itself is fine.
	// now is the wall-clock seam for those ages (tests pin it).
	stallAfter time.Duration
	now        func() time.Time

	// Analyzer progress signature, tracked by stallAge.
	mu          sync.Mutex
	lastPackets int64
	lastMark    time.Time
	lastAdvance time.Time
}

// reportSource is what a ReportServer serves: *Analyzer or *Fleet. Every
// method must be safe for concurrent use with ingest.
type reportSource interface {
	Windowing() bool
	// LatestWindowIndex is the window /report/latest serves (-1 if none).
	LatestWindowIndex() int
	WindowReport(n int) (*WindowReport, bool)
	// finalReport returns the cumulative report once it is complete; a
	// source without its own notion of completion returns false and
	// relies on SetFinal.
	finalReport() (*Report, bool)
	// health builds the source's /healthz document.
	health(s *ReportServer) any
}

// DefaultStallThreshold is how long /healthz lets progress sit still
// before reporting the run degraded.
const DefaultStallThreshold = 30 * time.Second

func newReportServer(src reportSource) *ReportServer {
	s := &ReportServer{src: src, mux: http.NewServeMux(), stallAfter: DefaultStallThreshold, now: time.Now}
	s.mux.HandleFunc("/healthz", s.healthz)
	s.mux.HandleFunc("/report/latest", s.latest)
	s.mux.HandleFunc("/report/window/", s.window)
	s.mux.HandleFunc("/report/final", s.final)
	return s
}

// NewReportServer returns a server over a (the handlers use only the
// Analyzer's concurrency-safe accessors). Its /healthz reports packets
// seen, the watermark and window counts, and degrades once the run has
// folded source errors or its progress has stalled; /report/final
// serves what SetFinal published.
func NewReportServer(a *Analyzer) *ReportServer { return newReportServer(a) }

// SetStallThreshold overrides how long progress may stall before
// /healthz degrades; d <= 0 disables stall detection. Call before
// serving.
func (s *ReportServer) SetStallThreshold(d time.Duration) { s.stallAfter = d }

// SetDraining marks a graceful shutdown in progress: stall and lag
// reporting is suppressed, since the source is expected to stop.
func (s *ReportServer) SetDraining(v bool) { s.draining.Store(v) }

// SetFinal publishes the cumulative report. Call it from the analysis
// goroutine after the last trace; handlers serve 404 on /report/final
// until then. The report is marshaled once, here, so handlers never
// touch the analyzer's aggregates after analysis ends.
func (s *ReportServer) SetFinal(r *Report) error {
	b, err := MarshalReport(r)
	if err != nil {
		return err
	}
	s.finalJSON.Store(&b)
	return nil
}

// ServeHTTP implements http.Handler.
func (s *ReportServer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	s.mux.ServeHTTP(w, req)
}

type healthStatus struct {
	// Status is "ok", or "degraded" when the run has folded source
	// errors or the progress signature has stalled past the threshold.
	Status           string
	Packets          int64
	Windowing        bool
	WindowDuration   string `json:",omitempty"`
	Watermark        string `json:",omitempty"`
	Windows          int
	CompletedWindows int
	FinalReady       bool
	// LiveConns is the resident connection count; SourceErrors the
	// running degraded-run error count.
	LiveConns    int64
	SourceErrors int64
	// Draining marks a graceful shutdown in progress.
	Draining bool `json:",omitempty"`
	// StallSeconds is how long the progress signature has been still,
	// present only once past the stall threshold.
	StallSeconds float64 `json:",omitempty"`
}

// stallAge reports how long the (packets, watermark) progress signature
// has been unchanged, or 0 while it is still advancing (or stall
// detection is off). The clock arms at the first probe, so a server
// nobody polls never accumulates a phantom stall.
func (s *ReportServer) stallAge(packets int64, mark time.Time) time.Duration {
	if s.stallAfter <= 0 {
		return 0
	}
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastAdvance.IsZero() || packets != s.lastPackets || !mark.Equal(s.lastMark) {
		s.lastPackets, s.lastMark, s.lastAdvance = packets, mark, now
		return 0
	}
	return now.Sub(s.lastAdvance)
}

func (a *Analyzer) health(s *ReportServer) any {
	h := healthStatus{
		Status:           "ok",
		Packets:          a.PacketsSeen(),
		Windowing:        a.Windowing(),
		Windows:          a.WindowCount(),
		CompletedWindows: a.LatestWindowIndex() + 1,
		FinalReady:       s.finalJSON.Load() != nil,
		LiveConns:        a.LiveConns(),
		SourceErrors:     a.SourceErrorsSeen(),
		Draining:         a.Stopping() || s.draining.Load(),
	}
	wm := a.Watermark()
	if h.Windowing {
		h.WindowDuration = a.WindowDuration().String()
		if !wm.IsZero() {
			h.Watermark = wm.UTC().Format(time.RFC3339Nano)
		}
	}
	// A finished run can't advance and isn't stalled; a draining one is
	// expected to stop moving.
	if !h.FinalReady && !h.Draining {
		if age := s.stallAge(h.Packets, wm); age > s.stallAfter {
			h.Status = "degraded"
			h.StallSeconds = age.Seconds()
		}
	}
	if h.SourceErrors > 0 {
		h.Status = "degraded"
	}
	return h
}

// finalReport: an analyzer cannot tell its last trace from the next
// one, so its final report is whatever the caller publishes via SetFinal.
func (a *Analyzer) finalReport() (*Report, bool) { return nil, false }

func (s *ReportServer) healthz(w http.ResponseWriter, req *http.Request) {
	b, err := json.MarshalIndent(s.src.health(s), "", "  ")
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeBody(w, b)
}

func (s *ReportServer) latest(w http.ResponseWriter, req *http.Request) {
	if !s.src.Windowing() {
		httpError(w, http.StatusNotFound, "windowing disabled")
		return
	}
	n := s.src.LatestWindowIndex()
	if n < 0 {
		httpError(w, http.StatusNotFound, "no completed window yet")
		return
	}
	s.serveWindow(w, n)
}

func (s *ReportServer) window(w http.ResponseWriter, req *http.Request) {
	if !s.src.Windowing() {
		httpError(w, http.StatusNotFound, "windowing disabled")
		return
	}
	raw := strings.TrimPrefix(req.URL.Path, "/report/window/")
	n, err := strconv.Atoi(raw)
	if err != nil {
		httpError(w, http.StatusBadRequest, "window index must be an integer")
		return
	}
	s.serveWindow(w, n)
}

func (s *ReportServer) serveWindow(w http.ResponseWriter, n int) {
	wr, ok := s.src.WindowReport(n)
	if !ok {
		httpError(w, http.StatusNotFound, "no such window")
		return
	}
	serveReport(w, wr.Report)
}

func (s *ReportServer) final(w http.ResponseWriter, req *http.Request) {
	if b := s.finalJSON.Load(); b != nil {
		writeBody(w, *b)
		return
	}
	r, ok := s.src.finalReport()
	if !ok {
		httpError(w, http.StatusNotFound, "final report not ready")
		return
	}
	serveReport(w, r)
}

func serveReport(w http.ResponseWriter, r *Report) {
	b, err := MarshalReport(r)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeBody(w, b)
}

// writeBody writes a 200 JSON body and its trailing newline. b may be
// the shared published report, so the newline is a second write rather
// than an append into b's spare capacity.
func writeBody(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	w.Write([]byte{'\n'})
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
