package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/cloud"
)

// benchmarkFile mirrors the keys of ../BENCHMARK.json the self-test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatches pins BENCHMARK.json's workloads (the listed
// ones, in order) and metric lists to the ones the program prints.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	var listed []string
	for _, w := range workloads {
		if !w.unlisted {
			listed = append(listed, w.name)
		}
	}
	if len(bf.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(listed))
	}
	for i, w := range bf.Workloads {
		if w.Name != listed[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, listed[i])
		}
	}
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, have []metricSpec) {
		if len(listed) != len(have) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(listed), len(have))
		}
		for i, m := range listed {
			if m.Name != have[i].name || m.Unit != have[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, have[i].name, have[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks that every listed metric is printed with its unit and
// that the result line is well formed and correct.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, boolInt(trace)), func(t *testing.T) {
				var out bytes.Buffer
				rc := runConfig{seed: 7, seconds: 0.2, trace: trace, scale: 0.01}
				if err := runWith(w, rc, t.TempDir(), &out); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("result holds %d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.name]
					if !ok || m.Unit != s.unit {
						t.Errorf("result metric %s = %+v, want unit %s", s.name, m, s.unit)
					}
					printed := false
					for _, l := range lines {
						f := strings.Fields(l)
						if len(f) == 4 && f[0] == "metric" && f[1] == s.name && f[3] == s.unit {
							printed = true
						}
					}
					if !printed {
						t.Errorf("metric %s [%s] not printed", s.name, s.unit)
					}
				}
			})
		}
	}
}

// TestRunRejectsBadArguments checks that the command refuses arguments
// outside its contract before doing any work; the fleet size in particular
// is not settable from the command line.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "sim-queue", "--trace", "2"},
		{"--workload", "sim-queue", "--seconds", "0"},
		{"--workload", "sim-queue", "--scale", "0.5"},
		{"--workload", "sim-queue", "extra"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run %q succeeded", args)
		}
		if out.Len() > 0 {
			t.Errorf("run %q printed %q", args, out.String())
		}
	}
}

// TestCheckServingCatchesCorruption runs a tiny serving workload, checks
// that its real end state passes, then corrupts the placement in the ways
// the check exists for.
func TestCheckServingCatchesCorruption(t *testing.T) {
	sp := serveSteady
	sp.pms, sp.specs = 100, 400
	in, env, err := setupServe(sp, 3, 2000, 500, 500, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.b.Close()
	pr := env.runPass(in, 500, 500, 1000, 4, false)
	for _, ps := range pr.phases {
		if ps.err != nil {
			t.Fatal(ps.err)
		}
	}
	states, _, err := env.shardStates()
	if err != nil {
		t.Fatal(err)
	}
	st := env.b.Stats()
	if err := checkServing(states, st, env.live); err != nil {
		t.Fatalf("uncorrupted run fails the check: %v", err)
	}
	if st.VMs == 0 {
		t.Fatal("no live VMs to corrupt")
	}
	vm := states[0].placement.VMs()[0]

	t.Run("vm on two shards", func(t *testing.T) {
		p, err := cloud.NewPlacement([]cloud.PM{{ID: 1 << 20, Capacity: 100}})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Assign(vm, 1<<20); err != nil {
			t.Fatal(err)
		}
		bad := append(append([]shardState(nil), states...), shardState{placement: p, table: states[0].table})
		if err := checkServing(bad, st, env.live); err == nil {
			t.Fatal("a VM placed on two shards passed the check")
		}
	})
	t.Run("eq17 overflow", func(t *testing.T) {
		// Same VM set, but one VM now needs more than its PM holds.
		p := states[0].placement.Clone()
		pmID, err := p.Remove(vm.ID)
		if err != nil {
			t.Fatal(err)
		}
		big := vm
		big.Rb = 1000
		if err := p.Assign(big, pmID); err != nil {
			t.Fatal(err)
		}
		bad := []shardState{{placement: p, table: states[0].table}}
		if err := checkServing(bad, st, env.live); err == nil {
			t.Fatal("a PM breaking Eq. (17) passed the check")
		}
	})
	t.Run("vm lost", func(t *testing.T) {
		p := states[0].placement.Clone()
		if _, err := p.Remove(vm.ID); err != nil {
			t.Fatal(err)
		}
		bad := []shardState{{placement: p, table: states[0].table}}
		if err := checkServing(bad, st, env.live); err == nil {
			t.Fatal("a live VM missing from the placement passed the check")
		}
	})
	t.Run("accounting", func(t *testing.T) {
		bad := st
		bad.Departed++
		if err := checkServing(states, bad, env.live); err == nil {
			t.Fatal("placed − departed ≠ live passed the check")
		}
	})
}

func TestCheckDigests(t *testing.T) {
	a := digest{FinalPMs: 10, TotalMigrations: 3, CVRMean: 0.01}
	if err := checkDigests([]digest{a, a, a}); err != nil {
		t.Fatal(err)
	}
	b := a
	b.TotalMigrations++
	if err := checkDigests([]digest{a, a, b}); err == nil {
		t.Fatal("differing digests passed the check")
	}
}

func TestMidMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{1, 3}, 2},
		{[]float64{100, 1, 2, 3, 4, 5, 6, -50}, 3.5}, // drops -50, 1, 6, 100
		{[]float64{6, 6, 6, 10, 10, 10, 10, 6}, 8},   // two modes, half each
	} {
		if got := midMean(c.xs); got != c.want {
			t.Errorf("midMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []int64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := quantile(xs, 0.99); q != 5 {
		t.Errorf("p99 = %v, want 5", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty = %v, want 0", q)
	}
}

// TestOpStreamReplaysBackAndForth checks the extended op stream: replayed
// from the prefill, every op toggles its VM (an arrival of an OFF VM, a
// departure of an ON one), and each backward replay of the base stream ends
// in the prefill state again.
func TestOpStreamReplaysBackAndForth(t *testing.T) {
	sp := serveSteady
	sp.pms, sp.specs, sp.streamIntervals = 100, 2000, 8
	in, err := genServeInputs(sp, 3, 5000, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	base := int(in.opsPerInterval*float64(sp.streamIntervals) + 0.5)
	if len(in.ops) < 5000 || len(in.ops) < 3*base {
		t.Fatalf("stream holds %d ops over a base of %d, want at least 5000 and three replays", len(in.ops), base)
	}
	on := make([]bool, len(in.vms))
	for _, vm := range in.prefill {
		on[vm.ID] = true
	}
	start := append([]bool(nil), on...)
	for i, o := range in.ops {
		if on[o.id] == o.arrive {
			t.Fatalf("op %d (VM %d, arrive %v) does not toggle its VM", i, o.id, o.arrive)
		}
		on[o.id] = o.arrive
		if (i+1)%(2*base) == 0 {
			for id := range on {
				if on[id] != start[id] {
					t.Fatalf("after %d ops (a forward and a backward replay) VM %d is not back in its prefill state", i+1, id)
				}
			}
		}
	}
}
