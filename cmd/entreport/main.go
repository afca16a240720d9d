// Command entreport reproduces every table and figure of "A First Look at
// Modern Enterprise Traffic" (IMC 2005): it generates the five synthetic
// datasets D0–D4, runs the full analysis pipeline over each, and prints
// the paper's tables with measured values.
//
// Usage:
//
//	entreport [-scale 1.0] [-datasets D0,D1,D2,D3,D4] [-subnets N]
//	entreport -datasets D3 -schedule default [-duration 10m] [-window 60s]
//	entreport -datasets D3 -on-error skip -inject "read@50,stall@100:1ms"
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"enttrace/internal/cli"
	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
	"enttrace/internal/pcap"
)

func main() { cli.Main(run) }

func run() error {
	scale := flag.Float64("scale", 1.0, "workload scale factor (volume knob)")
	datasets := flag.String("datasets", "D0,D1,D2,D3,D4", "comma-separated dataset names")
	subnets := flag.Int("subnets", 0, "limit monitored subnets per dataset (0 = all)")
	figdir := flag.String("figdir", "", "directory for per-figure TSV data series (empty = skip)")
	workers := flag.Int("workers", 0, "pipeline shard workers (0 = GOMAXPROCS); results are identical for any count")
	replayWorkers := flag.Int("replay-workers", 0, "application-replay workers (0 = GOMAXPROCS); results are identical for any count")
	window := flag.Duration("window", 0, "cut per-window reports at this interval in packet time (0 = whole-run report only)")
	schedule := flag.String("schedule", "",
		`analyze a time-structured schedule streamed straight from the generator (no trace `+
			`materialized) instead of the tap rotation: phase spec or "default"`)
	duration := flag.Duration("duration", 0, "with -schedule, tile the schedule to at least this length")
	parseRun := cli.RunFlags()
	flag.Parse()
	out, err := parseRun()
	if err != nil {
		return err
	}

	var sched gen.Schedule
	if *schedule != "" {
		if sched, err = cli.ParseSchedule(*schedule, *duration); err != nil {
			return err
		}
	} else if *duration > 0 {
		return cli.Usagef("-duration requires -schedule")
	}

	want := make(map[string]bool)
	for _, d := range strings.Split(*datasets, ",") {
		want[strings.TrimSpace(d)] = true
	}
	for _, cfg := range enterprise.AllDatasets() {
		if !want[cfg.Name] {
			continue
		}
		cfg.Scale = *scale
		if *subnets > 0 && *subnets < len(cfg.Monitored) {
			cfg.Monitored = cfg.Monitored[:*subnets]
		}
		a := core.NewAnalyzer(core.Options{
			Dataset:         cfg.Name,
			KnownScanners:   enterprise.KnownScanners(),
			PayloadAnalysis: cfg.Snaplen >= 1500,
			Workers:         *workers,
			ReplayWorkers:   *replayWorkers,
			Window:          *window,
			OnError:         out.Policy,
		})
		// Both ingest modes route through the fault injector — dataset
		// traces via a slice source — so a degraded rotation and a
		// degraded stream exercise the same seam. Injectors are
		// per-dataset: each report's census is checked against exactly
		// the faults fired into it.
		inj := out.Injector()
		var genDur time.Duration
		var totalPkts int64
		start := time.Now()
		if *schedule != "" {
			// Streamed mode: frames go straight from the generator into
			// the pipeline, so generation and analysis share the clock.
			subnet := cfg.Monitored[0]
			src := gen.NewStreamSource(gen.SubnetStream(cfg, sched))
			name := fmt.Sprintf("%s/subnet%d/scheduled", cfg.Name, subnet)
			if err := a.AddTraceSource(name, enterprise.SubnetPrefix(subnet), inj.Wrap(src)); err != nil {
				return fmt.Errorf("analyze %s: %w", cfg.Name, err)
			}
			totalPkts = src.Stats().Frames
		} else {
			ds := gen.GenerateDataset(cfg)
			genDur = time.Since(start)
			totalPkts = int64(ds.TotalPackets())
			start = time.Now()
			for _, tr := range ds.Traces {
				name := fmt.Sprintf("%s/subnet%d/tap%d", cfg.Name, tr.Subnet, tr.Tap)
				src := inj.Wrap(pcap.NewSliceSource(tr.Packets))
				if err := a.AddTraceSource(name, tr.Prefix, src); err != nil {
					return fmt.Errorf("analyze %s: %w", cfg.Name, err)
				}
			}
		}
		r := a.Report()
		if err := inj.CheckCensus(r); err != nil {
			return err
		}
		if err := out.WriteReport(os.Stdout, a.WindowReports(), r); err != nil {
			return fmt.Errorf("report output: %w", err)
		}
		if *figdir != "" {
			if err := core.WriteFigureData(*figdir, r); err != nil {
				return fmt.Errorf("figure data: %w", err)
			}
		}
		// Telemetry goes to stdout in text mode (as always) but must not
		// corrupt the machine-readable stream in json mode.
		dst := os.Stdout
		if out.JSON {
			dst = os.Stderr
		}
		if *schedule != "" {
			fmt.Fprintf(dst, "[%s: streamed %d packets gen→analyze in %.1fs]\n\n",
				cfg.Name, totalPkts, time.Since(start).Seconds())
		} else {
			fmt.Fprintf(dst, "[%s: generated %d packets in %.1fs, analyzed in %.1fs]\n\n",
				cfg.Name, totalPkts, genDur.Seconds(), time.Since(start).Seconds())
		}
	}
	return nil
}
