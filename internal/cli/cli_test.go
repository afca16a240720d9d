package cli

import (
	"errors"
	"flag"
	"io"
	"testing"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/pcap"
	"enttrace/internal/pipeline"
)

// TestParseRunRejectsBadValues: each malformed flag value is a
// UsageError, which Main turns into exit status 2.
func TestParseRunRejectsBadValues(t *testing.T) {
	for _, tc := range []struct{ name, format, onError, inject string }{
		{"format", "xml", "fail", ""},
		{"on-error", "text", "retry", ""},
		{"inject", "text", "skip", "explode@3"},
	} {
		_, err := ParseRun(tc.format, tc.onError, tc.inject)
		var ue *UsageError
		if !errors.As(err, &ue) {
			t.Errorf("bad -%s: err = %v, want a UsageError", tc.name, err)
		}
	}
}

func TestParseRunPolicy(t *testing.T) {
	for onError, want := range map[string]pipeline.ErrorPolicy{"fail": pipeline.FailFast, "skip": pipeline.Degrade} {
		r, err := ParseRun("json", onError, "")
		if err != nil {
			t.Fatal(err)
		}
		if r.Policy != want || !r.JSON {
			t.Errorf("-on-error %s: run = %+v, want policy %v, JSON", onError, r, want)
		}
	}
}

// TestRunFlagsParsesCommandLine drives the registered flags: a bad
// -format set on the command line surfaces as a UsageError.
func TestRunFlagsParsesCommandLine(t *testing.T) {
	parse := RunFlags()
	if err := flag.CommandLine.Set("format", "yaml"); err != nil {
		t.Fatal(err)
	}
	var ue *UsageError
	if _, err := parse(); !errors.As(err, &ue) {
		t.Errorf("err = %v, want a UsageError", err)
	}
}

// injectedRun wraps a 20-packet source in a degraded run's injector,
// drains it the way the pipeline's degrade policy does, and returns the
// injector with the census its manifest implies.
func injectedRun(t *testing.T) (*Injector, core.SourceErrorReport) {
	t.Helper()
	run, err := ParseRun("text", "skip", "read@2,short@5:10,read@9")
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]*pcap.Packet, 20)
	for i := range pkts {
		pkts[i] = &pcap.Packet{Timestamp: time.Unix(int64(i), 0), Data: make([]byte, 60), OrigLen: 60}
	}
	inj := run.Injector()
	src := inj.Wrap(pcap.NewSliceSource(pkts))
	want := core.SourceErrorReport{ByKind: map[string]int64{}}
	for {
		_, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			kind, _ := pcap.ClassifyReadError(err)
			want.Errors++
			want.LostBytes += pcap.FaultLostBytes(err)
			want.ByKind[kind]++
		}
	}
	if want.Errors != 3 || len(want.ByKind) != 2 {
		t.Fatalf("drained census %+v, want 3 errors of 2 kinds", want)
	}
	return inj, want
}

func TestCheckCensusAcceptsMatchingReport(t *testing.T) {
	inj, want := injectedRun(t)
	if err := inj.CheckCensus(&core.Report{SourceErrors: want}); err != nil {
		t.Error(err)
	}
}

func TestCheckCensusRejectsExtraKind(t *testing.T) {
	inj, want := injectedRun(t)
	want.ByKind["torn-record"] = 0
	if err := inj.CheckCensus(&core.Report{SourceErrors: want}); err == nil {
		t.Error("census with an extra ByKind key accepted")
	}
}

func TestCheckCensusRejectsMissingError(t *testing.T) {
	inj, want := injectedRun(t)
	want.Errors--
	want.ByKind["read-error"]--
	if err := inj.CheckCensus(&core.Report{SourceErrors: want}); err == nil {
		t.Error("census missing one error accepted")
	}
}
