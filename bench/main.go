// Command bench is the repository's benchmark: four encrypted-MPI workloads,
// end-to-end metrics measured untraced, and a traced pass that yields
// per-layer metrics and a budget reconciling them with the end-to-end time.
// It imports only the root facade package, like cmd/ and examples/, so
// internal refactors cannot break it. See README.md in this directory.
//
//	go run -C bench .                                  # all workloads, both passes
//	go run -C bench . -workload pp_1k_shm -trace 0     # one pass of one workload
//	go run -C bench . -out a.json ; ... -out b.json
//	go run -C bench . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"encmpi"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed     uint64
	seconds  float64
	traceOut string
	// calib is the machine as measured before the workload started.
	calib calibration
}

// machine is the record every output carries.
type machine struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	LoadShape  string  `json:"load_shape"`
}

const loadShape = "closed loop, one client: two rank goroutines in one process (64 simulated ranks, one running at a time, on coll_sim_64r); " +
	"TCP traffic crosses the host loopback interface, not a link; payloads are reused across ops and therefore cache-resident, as in the OSU suites; " +
	"fixed op counts per segment, every A/B option of the library left at its default"

// workloadReport is one workload's part of a report.
type workloadReport struct {
	Name          string             `json:"name"`
	OpsPerSegment int                `json:"ops_per_segment"`
	Tail          string             `json:"tail"`
	Attempted     int64              `json:"attempted"`
	Failed        int64              `json:"failed"`
	FailRatio     float64            `json:"fail_ratio"`
	Correct       bool               `json:"correct"`
	Problems      []string           `json:"problems,omitempty"`
	CalibBefore   calibration        `json:"calib_before"`
	CalibAfter    calibration        `json:"calib_after"`
	EndToEnd      map[string]summary `json:"end_to_end,omitempty"`
	PerLayer      map[string]float64 `json:"per_layer,omitempty"`
}

// report is the file -out writes and -compare reads.
type report struct {
	Machine   machine          `json:"machine"`
	Workloads []workloadReport `json:"workloads"`
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // a checkout that is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// runner is one workload's two passes; the wall-clock workloads and the
// simulated one implement it.
type runner interface {
	untraced(cfg runConfig) (passResult, error)
	traced(cfg runConfig) (passResult, []*tracer, error)
}

// runWorkload runs the requested passes of one workload, bracketed by two
// calibrations of the machine.
func runWorkload(w workload, cfg runConfig, untraced, traced bool) (workloadReport, error) {
	rep := workloadReport{Name: w.Name, OpsPerSegment: w.ops(cfg.seconds), Tail: w.TailName}
	var err error
	if rep.CalibBefore, err = calibrate(w.wireBytes()); err != nil {
		return rep, err
	}
	cfg.calib = rep.CalibBefore
	var r runner = newPairRun(w, newInputs(w, cfg.seed))
	if w.Transport == "sim" {
		r = simRun{w}
	}
	absorb := func(res passResult) {
		rep.Attempted += res.Attempted
		rep.Failed += res.Failed
		rep.Problems = append(rep.Problems, res.Invariant...)
	}
	if untraced {
		res, err := r.untraced(cfg)
		if err != nil {
			return rep, err
		}
		absorb(res)
		rep.EndToEnd = res.EndToEnd
	}
	if traced {
		res, tracers, err := r.traced(cfg)
		if err != nil {
			return rep, err
		}
		absorb(res)
		rep.PerLayer = res.PerLayer
		if cfg.traceOut != "" {
			path, err := writeChromeTrace(cfg.traceOut, w, tracers)
			if err != nil {
				return rep, err
			}
			fmt.Fprintf(os.Stderr, "%s: spans written to %s\n", w.Name, path)
		}
	}
	if rep.CalibAfter, err = calibrate(w.wireBytes()); err != nil {
		return rep, err
	}
	for _, warn := range rep.CalibBefore.drift(rep.CalibAfter) {
		fmt.Fprintf(os.Stderr, "%s: warning: %s\n", w.Name, warn)
	}
	if traced {
		// Every workload reports every per-layer metric: a layer the
		// workload does not run reads 0.
		for _, m := range perLayer {
			if _, ok := rep.PerLayer[m.Name]; !ok {
				rep.PerLayer[m.Name] = 0
			}
		}
		rep.PerLayer["calib.copy_MBps"] = rep.CalibBefore.CopyMBps
		rep.PerLayer["calib.gcm_MBps"] = rep.CalibBefore.GCMMBps
		rep.PerLayer["calib.loopback_us"] = rep.CalibBefore.LoopbackUs
		rep.PerLayer["calib.handoff_ns"] = rep.CalibBefore.HandoffNs
	}
	rep.FailRatio = float64(rep.Failed) / float64(max(rep.Attempted, 1))
	rep.Correct = rep.Failed == 0 && len(rep.Problems) == 0 && rep.Attempted > 0
	return rep, nil
}

// print writes one workload's metrics by name, with their units.
func (rep workloadReport) print() {
	fmt.Printf("\n%s  (%d ops per half segment, tail = %s)\n", rep.Name, rep.OpsPerSegment, rep.Tail)
	fmt.Printf("  %-32s %14.6g %-6s (%d failed of %d attempted)\n", "fail_ratio", rep.FailRatio, "ratio", rep.Failed, rep.Attempted)
	if rep.EndToEnd != nil {
		for _, m := range endToEnd {
			s := rep.EndToEnd[m.Name]
			fmt.Printf("  %-32s %14.6g %-6s IQR %.6g..%.6g (%.2f%%) n=%d\n", m.Name, s.Value, s.Unit, s.Q1, s.Q3, s.spread()*100, s.N)
		}
	}
	if rep.PerLayer != nil {
		for _, m := range perLayer {
			fmt.Printf("  %-32s %14.6g %s\n", m.Name, rep.PerLayer[m.Name], m.Unit)
		}
	}
	for _, p := range rep.Problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
}

// driverLine is the one JSON object an outside driver reads from the last
// line of standard output.
func (rep workloadReport) driverLine(traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, m := range perLayer {
			metrics[m.Name] = value{rep.PerLayer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = value{rep.EndToEnd[m.Name].Value, m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload ("+workloadNames()+"); default all, both passes")
		seed     = flag.Uint64("seed", 1, "generates the payload bytes and the 32-byte session key")
		seconds  = flag.Float64("seconds", 10, "scales the fixed op counts; about this long is timed per pass")
		trace    = flag.Int("trace", -1, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics); default both")
		out      = flag.String("out", "", "also write the full report as JSON to this file")
		traceOut = flag.String("trace-out", "", "write each traced workload's spans as Chrome trace-event JSON into this directory")
		compare  = flag.Bool("compare", false, "compare two -out reports: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || *trace < -1 || *trace > 1 {
		fatal(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	todo := workloads
	if *name != "" {
		w, err := lookupWorkload(*name)
		if err != nil {
			fatal(err)
		}
		todo = []workload{w}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traceOut: *traceOut}
	full := report{Machine: machine{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: *seed, Seconds: *seconds, LoadShape: loadShape,
	}}
	m := full.Machine
	fmt.Printf("encmpi bench: nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d, seconds %g, overhead per record %d B\n%s\n",
		m.NProc, m.GOMAXPROCS, m.GoVersion, m.Commit, m.Seed, m.Seconds, encmpi.Overhead, loadShape)
	correct := true
	var last workloadReport
	for _, w := range todo {
		rep, err := runWorkload(w, cfg, *trace != 1, *trace != 0)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.Name, err))
		}
		rep.print()
		correct = correct && rep.Correct
		full.Workloads = append(full.Workloads, rep)
		last = rep
	}
	if *out != "" {
		b, err := json.MarshalIndent(full, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if *name != "" && *trace >= 0 {
		fmt.Println(last.driverLine(*trace == 1))
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "bench: FAILED: at least one op or invariant failed; see fail_ratio above")
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
