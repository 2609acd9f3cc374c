package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// declared mirrors BENCHMARK.json at the repository root.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []e2eMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclaredMatchesTables pins BENCHMARK.json to the tables this program
// runs from, and both to the limits an outside driver enforces.
func TestDeclaredMatchesTables(t *testing.T) {
	d := readDeclared(t)
	if len(d.Paths) != 1 || d.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", d.Paths)
	}
	if len(d.Workloads) != len(workloads) || len(d.EndToEnd) != len(endToEnd) || len(d.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d workloads / %d end-to-end / %d per-layer, tables have %d / %d / %d",
			len(d.Workloads), len(d.EndToEnd), len(d.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	if len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("over the limits of 8 workloads / 16 end-to-end / 128 per-layer metrics")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range workloads {
		name(w.Name)
		if d.Workloads[i].Name != w.Name || d.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, table has %q / %q", i, d.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for i, m := range endToEnd {
		name(m.Name)
		if d.EndToEnd[i] != m {
			t.Errorf("end-to-end %d: declared %+v, table has %+v", i, d.EndToEnd[i], m)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bad unit, direction or bound: %+v", m.Name, m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for i, m := range perLayer {
		name(m.Name)
		if got := d.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: declared %+v, table has %+v", i, got, m)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Moves == "" {
			t.Errorf("%s: bad unit or direction, or no prediction of what it moves", m.Name)
		}
	}
}

// TestEveryWorkloadEmitsDeclaredMetrics runs all four workloads at a few ops
// each, both passes, and checks that exactly the declared metric names come
// out, as finite numbers, with every op verified.
func TestEveryWorkloadEmitsDeclaredMetrics(t *testing.T) {
	cfg := runConfig{seed: 7, seconds: 0.002, traceOut: t.TempDir()}
	for _, w := range workloads {
		rep, err := runWorkload(w, cfg, true, true)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d problems=%v", w.Name, rep.Correct, rep.Failed, rep.Attempted, rep.Problems)
		}
		for traced, want := range map[bool]int{false: len(endToEnd), true: len(perLayer)} {
			var line struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(rep.driverLine(traced)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s: driver line: %v", w.Name, err)
			}
			if len(line.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(line.Metrics), want)
			}
			check := func(n, unit string, nonZero bool) {
				m, ok := line.Metrics[n]
				switch {
				case !ok || m.Value == nil:
					t.Errorf("%s: metric %s is missing or null", w.Name, n)
				case m.Unit != unit:
					t.Errorf("%s: %s has unit %q, want %q", w.Name, n, m.Unit, unit)
				case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) || (nonZero && *m.Value <= 0):
					t.Errorf("%s: %s = %v", w.Name, n, *m.Value)
				}
			}
			if traced {
				for _, m := range perLayer {
					check(m.Name, m.Unit, false)
				}
			} else {
				for _, m := range endToEnd {
					check(m.Name, m.Unit, true)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(cfg.traceOut, w.Name+".trace.json")); err != nil {
			t.Errorf("%s: no Chrome trace written: %v", w.Name, err)
		}
	}
}

// TestSimVirtualTimeIsDeterministic: coll_sim_64r's virtual-time metrics and
// exact counts are bit-identical across runs and seeds.
func TestSimVirtualTimeIsDeterministic(t *testing.T) {
	w, err := lookupWorkload("coll_sim_64r")
	if err != nil {
		t.Fatal(err)
	}
	exact := []string{
		"encmpi.seals_per_op", "encmpi.opens_per_op", "mpi.msgs_per_op", "transport.bytes_per_op",
		"sim.events_per_op", "sim.packets_per_op", "sim.wire_bytes_per_op",
	}
	for _, m := range perLayer {
		if m.Unit == "vus" || strings.HasPrefix(m.Name, "sim.virtual_") {
			exact = append(exact, m.Name)
		}
	}
	var first map[string]float64
	for _, seed := range []uint64{1, 2} {
		res, _, err := simRun{w}.traced(runConfig{seed: seed, seconds: 0.002})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res.PerLayer
			continue
		}
		for _, name := range exact {
			if first[name] <= 0 || res.PerLayer[name] != first[name] {
				t.Errorf("%s: %v then %v", name, first[name], res.PerLayer[name])
			}
		}
	}
}

// TestFacadeOnly: the benchmark reaches the library through the root facade
// alone, the rule cmd/ and examples/ obey.
func TestFacadeOnly(t *testing.T) {
	forbidden := "encmpi/" + "internal"
	files, err := filepath.Glob("*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err) // the directory holds regular files only
		}
		if bytes.Contains(b, []byte(forbidden)) {
			t.Errorf("%s mentions %s", f, forbidden)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestCompareVerdicts drives -compare over three synthetic reports.
func TestCompareVerdicts(t *testing.T) {
	mk := func(p50, q1, q3, failRatio float64) report {
		e := map[string]summary{}
		for _, m := range endToEnd {
			e[m.Name] = summary{Value: 100, Unit: m.Unit, Q1: 99.5, Q3: 100.5, N: 10}
		}
		e["op_us_p50"] = summary{Value: p50, Unit: "us", Q1: q1, Q3: q3, N: 10}
		return report{Workloads: []workloadReport{{Name: "pp_1k_shm", EndToEnd: e, FailRatio: failRatio}}}
	}
	dir := t.TempDir()
	write := func(name string, r report) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(100, 99.5, 100.5, 0))
	for _, tc := range []struct {
		name    string
		other   report
		verdict string
		worse   bool
	}{
		{"same", mk(101, 100.5, 101.5, 0), " ok", false},
		{"slower", mk(150, 149, 151, 0), "worse", true},
		{"noisy", mk(150, 100, 200, 0), "unresolved", false},
		{"failing", mk(100, 99.5, 100.5, 0.01), "worse", true},
	} {
		var out strings.Builder
		worse, err := compareFiles(&out, base, write(tc.name+".json", tc.other))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: worse=%v, want %v with verdict %q in:\n%s", tc.name, worse, tc.worse, tc.verdict, out.String())
		}
	}
}
