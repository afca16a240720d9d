package core

import (
	"net/http"
	"time"
)

// FleetServer is the ReportServer over a fleet aggregation, so
// fleet-wide reports are drop-in for single-instance consumers.
type FleetServer = ReportServer

// NewFleetServer returns a server over f (the handlers use only the
// Fleet's concurrency-safe accessors). Window endpoints serve whatever
// snapshots have been delivered so far, /report/latest the highest
// window any site has reached, and /report/final the merged cumulative
// report once every site has finned. Two endpoints are the fleet's own:
//
//	GET /healthz            — fleet liveness: per-site delivery state,
//	                          lag, and degradation counts; a site silent
//	                          past the stall threshold is named stale
//	GET /report/fleet       — the current merged cumulative report,
//	                          served any time (carries the degradation
//	                          census while sites are missing data)
func NewFleetServer(f *Fleet) *FleetServer {
	s := newReportServer(f)
	s.mux.HandleFunc("/report/fleet", func(w http.ResponseWriter, req *http.Request) {
		serveReport(w, f.Report())
	})
	return s
}

// fleetHealth is the /healthz document. Lag fields (StaleSites,
// WatermarkSkewSeconds, per-site LastDeliveryAgeSeconds) are suppressed
// once the fleet is draining or final: sites legitimately stop
// delivering then, and a lag alarm would cry wolf on every clean
// shutdown.
type fleetHealth struct {
	// Status is "ok", or "degraded" when windows are census-lost, an
	// expected site never reported, or a live site has gone silent past
	// the stall threshold.
	Status         string
	Sites          int
	ConnectedSites int
	FinSites       int
	// MissingSites are expected sites that never connected; StaleSites
	// are known, unfinished sites whose last delivery is older than the
	// stale threshold (a crashed or partitioned site shows up here).
	MissingSites []string `json:",omitempty"`
	StaleSites   []string `json:",omitempty"`
	Windowing    bool
	WindowDur    string `json:",omitempty"`
	Windows      int
	LostWindows  int
	FinalReady   bool
	Draining     bool `json:",omitempty"`
	// WatermarkSkewSeconds is the event-time spread between the most-
	// and least-advanced reporting sites — the fleet's merge horizon lag.
	WatermarkSkewSeconds float64           `json:",omitempty"`
	SiteDetail           []fleetSiteHealth `json:",omitempty"`
}

// fleetSiteHealth is one site's row in /healthz.
type fleetSiteHealth struct {
	Site        string
	Connected   bool
	Fin         bool
	Windows     int
	LostWindows int    `json:",omitempty"`
	Watermark   string `json:",omitempty"`
	// LastDeliveryAgeSeconds is wall-clock time since the site's last
	// frame (suppressed once the site finned or the fleet is winding
	// down).
	LastDeliveryAgeSeconds float64 `json:",omitempty"`
}

func (f *Fleet) health(s *ReportServer) any {
	st := f.Status()
	h := fleetHealth{
		Status:       "ok",
		Sites:        len(st.Sites),
		MissingSites: st.MissingSites,
		Windowing:    f.Windowing(),
		Windows:      st.Windows,
		LostWindows:  st.LostWindows,
		FinalReady:   st.FinalReady,
		Draining:     s.draining.Load(),
	}
	if h.Windowing {
		h.WindowDur = f.WindowDuration().String()
	}
	quiet := h.FinalReady || h.Draining
	now := s.now()
	for _, row := range st.Sites {
		sh := fleetSiteHealth{
			Site:        row.Site,
			Connected:   row.Connected,
			Fin:         row.Fin,
			Windows:     row.Windows,
			LostWindows: row.LostWindows,
		}
		if row.Connected {
			h.ConnectedSites++
		}
		if row.Fin {
			h.FinSites++
		}
		if !row.Watermark.IsZero() {
			sh.Watermark = row.Watermark.Format(time.RFC3339Nano)
		}
		if !quiet && !row.Fin && !row.LastDelivery.IsZero() {
			age := now.Sub(row.LastDelivery)
			sh.LastDeliveryAgeSeconds = age.Seconds()
			if s.stallAfter > 0 && age > s.stallAfter {
				h.StaleSites = append(h.StaleSites, row.Site)
			}
		}
		h.SiteDetail = append(h.SiteDetail, sh)
	}
	if !quiet && st.WatermarkSkew > 0 {
		h.WatermarkSkewSeconds = st.WatermarkSkew.Seconds()
	}
	if h.LostWindows > 0 || len(h.MissingSites) > 0 || len(h.StaleSites) > 0 {
		h.Status = "degraded"
	}
	return h
}

// finalReport gates on fleet completeness: it is exactly what
// /report/fleet serves, but only once every site has finned — the moment
// the merged report stops changing.
func (f *Fleet) finalReport() (*Report, bool) {
	if !f.Status().FinalReady {
		return nil, false
	}
	return f.Report(), true
}
