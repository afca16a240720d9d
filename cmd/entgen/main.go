// Command entgen generates the synthetic enterprise datasets as libpcap
// trace files, one file per monitored subnet per tap — the on-disk shape
// of the paper's capture campaign. The traces are ordinary Ethernet pcaps
// readable by any packet tool.
//
// Usage:
//
//	entgen -dataset D3 -out ./traces [-scale 1.0] [-subnets N]
//	entgen -dataset D3 -schedule default [-duration 10m] -out ./traces
//	entgen -evasion all -out ./traces
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"enttrace/internal/cli"
	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
)

func main() { cli.Main(run) }

func run() error {
	dataset := flag.String("dataset", "D0", "dataset name (D0..D4)")
	out := flag.String("out", ".", "output directory")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	subnets := flag.Int("subnets", 0, "limit monitored subnets (0 = all)")
	schedule := flag.String("schedule", "",
		`emit one time-structured trace instead of the tap rotation: comma-separated phases `+
			`kind:duration[:rate] with rate in sessions/minute, e.g. `+
			`"ramp:60s:0-30,burst:60s:90,quiet:60s,steady:2m:18"; "default" uses the built-in day-in-miniature`)
	duration := flag.Duration("duration", 0,
		"with -schedule, tile the schedule to at least this length (soak-sized traces; 0 = emit it once)")
	evasion := flag.String("evasion", "",
		`emit adversarial evasion scenario pcaps instead of the tap rotation: a scenario name, `+
			`"all", or "list" to print the scenario family`)
	flag.Parse()

	if *evasion == "list" {
		for _, sc := range gen.EvasionScenarios() {
			fmt.Printf("%-18s %s\n", sc.Name, sc.Description)
		}
		return nil
	}

	cfg, found := enterprise.DatasetByName(*dataset)
	if !found {
		return cli.Usagef("unknown dataset %q", *dataset)
	}
	cfg.Scale = *scale
	if *subnets > 0 && *subnets < len(cfg.Monitored) {
		cfg.Monitored = cfg.Monitored[:*subnets]
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	if *evasion != "" {
		scenarios := gen.EvasionScenarios()
		if *evasion != "all" {
			sc, ok := gen.EvasionScenarioByName(*evasion)
			if !ok {
				return cli.Usagef("unknown evasion scenario %q (try -evasion list)", *evasion)
			}
			scenarios = []gen.EvasionScenario{sc}
		}
		for _, sc := range scenarios {
			tr := sc.Build()
			name := fmt.Sprintf("evasion-%s.pcap", sc.Name)
			path := filepath.Join(*out, name)
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			// Full frames: evasion pcaps carry their corrupt headers and
			// payload bytes intact regardless of the dataset snaplen.
			wcfg := cfg
			wcfg.Snaplen = 65535
			if err := gen.WriteTrace(f, wcfg, tr); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("%s: %d packets (%s)\n", path, len(tr.Packets), sc.Description)
		}
		return nil
	}
	if *schedule != "" {
		sched, err := cli.ParseSchedule(*schedule, *duration)
		if err != nil {
			return err
		}
		subnet := cfg.Monitored[0]
		name := fmt.Sprintf("%s-scheduled-subnet%02d.pcap", cfg.Name, subnet)
		path := filepath.Join(*out, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		// Stream the frames straight to disk: a soak-length schedule never
		// materializes in memory, and the file is byte-identical to the
		// materialized path.
		src := gen.NewStreamSource(gen.SubnetStream(cfg, sched))
		n, err := gen.WriteStream(f, cfg.Snaplen, src)
		if err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("%s: %d packets over %s\n", path, n, sched.Duration())
		return nil
	}
	ds := gen.GenerateDataset(cfg)
	for _, tr := range ds.Traces {
		name := fmt.Sprintf("%s-subnet%02d-tap%d.pcap", cfg.Name, tr.Subnet, tr.Tap)
		path := filepath.Join(*out, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := gen.WriteTrace(f, cfg, tr); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("%s: %d packets\n", path, len(tr.Packets))
	}
	return nil
}
