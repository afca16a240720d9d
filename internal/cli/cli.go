// Package cli holds the run plumbing the enttrace commands share: the
// exit-code convention for bad invocations, the -format, -on-error and
// -inject flags, schedule specs, the fault injector's source wrapping
// with its census self-check, and the text/JSON report output.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/faults"
	"enttrace/internal/gen"
	"enttrace/internal/pcap"
	"enttrace/internal/pipeline"
)

// UsageError marks a bad invocation.
type UsageError struct{ msg string }

func (e *UsageError) Error() string { return e.msg }

// Usagef returns a UsageError with a formatted message.
func Usagef(format string, args ...any) error {
	return &UsageError{msg: fmt.Sprintf(format, args...)}
}

// Main runs a command's body. On error it prints the error to standard
// error and exits 2 for a UsageError (like flag parse failures) or 1
// for anything else.
func Main(run func() error) {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		var ue *UsageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// RunFlags defines the -format, -on-error and -inject flags on the
// default flag set. After flag.Parse, the returned function validates
// their values with ParseRun.
func RunFlags() func() (Run, error) {
	format := flag.String("format", "text", "report output format: text or json")
	onError := flag.String("on-error", "fail",
		`source read-error policy: "fail" aborts on the first error (default); "skip" degrades `+
			`and continues — poisoned records are dropped and the report carries a SourceError census`)
	inject := flag.String("inject", "",
		`deterministic fault injection against every source: "kind@index[:arg],..." with kinds `+
			`read@N, short@N:cut, stall@N:dur, torn@N, eof@N — or "rand:seed:count:span"; pair with `+
			`-on-error skip to exercise degraded runs (the census is checked against the manifest)`)
	return func() (Run, error) { return ParseRun(*format, *onError, *inject) }
}

// Run is a parsed -format, -on-error and -inject triple.
type Run struct {
	// JSON selects the single-document JSON output over text tables.
	JSON bool
	// Policy is the source read-error policy.
	Policy pipeline.ErrorPolicy

	inject bool
	sched  faults.Schedule
}

// ParseRun validates the three flag values: format is "text" or "json",
// onError is "fail" or "skip", and inject is empty or a faults spec.
func ParseRun(format, onError, inject string) (Run, error) {
	if format != "text" && format != "json" {
		return Run{}, Usagef("unknown -format %q (want text or json)", format)
	}
	r := Run{JSON: format == "json"}
	switch onError {
	case "fail":
		r.Policy = pipeline.FailFast
	case "skip":
		r.Policy = pipeline.Degrade
	default:
		return Run{}, Usagef("unknown -on-error %q (want fail or skip)", onError)
	}
	if inject != "" {
		sched, err := faults.ParseSpec(inject)
		if err != nil {
			return Run{}, Usagef("%v", err)
		}
		r.inject, r.sched = true, sched
	}
	return r, nil
}

// WriteReport writes a run's windows and cumulative report to w: one
// JSON document, or text — the window summary when there are windows,
// then the report's tables.
func (r Run) WriteReport(w io.Writer, windows []*core.WindowReport, rep *core.Report) error {
	if r.JSON {
		return core.WriteRunJSON(w, windows, rep)
	}
	if len(windows) > 0 {
		if _, err := io.WriteString(w, core.RenderWindowSummary(windows)+"\n"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, core.RenderText(rep))
	return err
}

// ParseSchedule parses a schedule flag value — "default" for the
// built-in day-in-miniature, or a phase spec — and tiles it to at least
// repeat when repeat > 0. A malformed spec is a UsageError.
func ParseSchedule(spec string, repeat time.Duration) (gen.Schedule, error) {
	sched := gen.DefaultSchedule()
	if spec != "default" {
		var err error
		if sched, err = gen.ParseSchedule(spec); err != nil {
			return gen.Schedule{}, Usagef("%v", err)
		}
	}
	if repeat > 0 {
		sched = sched.Repeat(repeat)
	}
	return sched, nil
}

// Injector interposes the -inject schedule on each source it wraps and
// remembers every wrapper, so the report's census can be checked
// against the faults that actually fired. Use one per report.
type Injector struct {
	run     Run
	sources []*faults.Source
}

// Injector returns an empty injector for one report.
func (r Run) Injector() *Injector { return &Injector{run: r} }

// Wrap returns src behind the fault schedule, or src itself when no
// -inject spec was given.
func (in *Injector) Wrap(src pcap.PacketSource) pcap.PacketSource {
	if !in.run.inject {
		return src
	}
	fs := faults.Wrap(src, in.run.sched)
	in.sources = append(in.sources, fs)
	return fs
}

// CheckCensus verifies the report's SourceError census against what the
// injectors actually fired, when faults were injected into a degraded
// run (fail-fast runs stop at the first fault and fold no census). The
// match line is stable for CI to grep.
func (in *Injector) CheckCensus(r *core.Report) error {
	if len(in.sources) == 0 || in.run.Policy != pipeline.Degrade {
		return nil
	}
	exp := faults.Expected{ByKind: make(map[string]int64)}
	for _, fs := range in.sources {
		e := fs.Expected()
		exp.Errors += e.Errors
		exp.LostBytes += e.LostBytes
		for k, n := range e.ByKind {
			exp.ByKind[k] += n
		}
	}
	got := r.SourceErrors
	ok := got.Errors == exp.Errors && got.LostBytes == exp.LostBytes
	for k, n := range exp.ByKind {
		if got.ByKind[k] != n {
			ok = false
		}
	}
	for k := range got.ByKind {
		if _, want := exp.ByKind[k]; !want {
			ok = false
		}
	}
	if !ok {
		return fmt.Errorf("fault census: report (%d errors, %d bytes lost) does not match injected manifest (%d errors, %d bytes lost)",
			got.Errors, got.LostBytes, exp.Errors, exp.LostBytes)
	}
	fmt.Fprintf(os.Stderr, "fault census: report matches injected manifest (%d errors, %d bytes lost)\n",
		exp.Errors, exp.LostBytes)
	return nil
}
