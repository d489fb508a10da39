package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stamp identifies the code and the machine a result was measured on.
type stamp struct {
	Commit       string   `json:"commit"`
	SourceSHA256 string   `json:"source_sha256"`
	CPU          string   `json:"cpu"`
	NProc        int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	GoVersion    string   `json:"go_version"`
	Workload     string   `json:"workload"`
	Why          string   `json:"why"`
	Layers       []string `json:"layers"`
	Seed         int64    `json:"seed"`
	Seconds      float64  `json:"seconds"`
	Trace        bool     `json:"trace"`
	Start        string   `json:"start"`
}

func newStamp(w workloadDef, seed int64, secs float64, trace bool) (stamp, error) {
	digest, err := sourceDigest(".")
	if err != nil {
		return stamp{}, err
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return stamp{
		Commit:       commit,
		SourceSHA256: digest,
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Workload:     w.name,
		Why:          w.why,
		Layers:       w.layers,
		Seed:         seed,
		Seconds:      secs,
		Trace:        trace,
		Start:        time.Now().UTC().Format(time.RFC3339),
	}, nil
}

// sourceDigest hashes the Go sources and module files under root (skipping
// build output and VCS directories), so a result names the code it measured
// even where the checkout carries no commit. It fails when root holds no
// go.mod: the benchmark was started outside a repository checkout.
func sourceDigest(root string) (string, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("no go.mod in the working directory; run from the repository root: %w", err)
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealMeter measures the share of CPU time the hypervisor gave to other
// guests while a phase ran: a reading well above zero marks a run measured
// on a contended host.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTimes()
	return stealMeter{s, t, ok}
}

// pct returns the stolen share since start, in percent.
func (m stealMeter) pct() (float64, bool) {
	s, t, ok := cpuTimes()
	if !ok || !m.ok || t <= m.total {
		return 0, false
	}
	return 100 * float64(s-m.steal) / float64(t-m.total), true
}

// repGap is an idle pause before each timed set-up or build rep. On a
// shared host a rep of a few milliseconds can run twice as fast in one
// stretch of a second as in the next; the pauses spread a run's reps over
// several such stretches, so their summary does not hang on one.
const repGap = 50 * time.Millisecond

// cpuClock is a wall-clock reading paired with the machine's CPU times.
type cpuClock struct {
	wall         time.Time
	steal, total uint64
	ok           bool
}

func readCPUClock() cpuClock {
	s, t, ok := cpuTimes()
	return cpuClock{time.Now(), s, t, ok}
}

// unstolen returns the wall time from c to end less the share of it the
// hypervisor gave to other guests: the wall time scaled by the unstolen
// share of all CPUs' time. It is the plain wall time when the CPU times
// cannot be read.
func (c cpuClock) unstolen(end cpuClock) time.Duration {
	wall := end.wall.Sub(c.wall)
	if !c.ok || !end.ok || end.total <= c.total || end.steal < c.steal {
		return wall
	}
	f := float64(end.steal-c.steal) / float64(end.total-c.total)
	return time.Duration(float64(wall) * (1 - min(f, 0.9)))
}

// stealShare sums the machine's steal and total CPU time over a set of
// windows, such as a run's set-up reps, which are too short one by one for
// the jiffy-grained counters.
type stealShare struct{ steal, total uint64 }

// add counts the window from c to end.
func (s *stealShare) add(c, end cpuClock) {
	if c.ok && end.ok && end.total > c.total && end.steal >= c.steal {
		s.steal += end.steal - c.steal
		s.total += end.total - c.total
	}
}

// unstolen returns the unstolen share of the windows' CPU time: the factor
// that turns their wall time into unstolen wall time.
func (s stealShare) unstolen() float64 {
	if s.total == 0 {
		return 1
	}
	return 1 - min(float64(s.steal)/float64(s.total), 0.9)
}

// cpuTimes reads the steal and total jiffies of all CPUs from /proc/stat.
func cpuTimes() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy); 0
// for no samples.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i])
}

// midMean returns the mean of the middle half of xs: the values left when
// the lowest and the highest quarter are dropped. Set-up and build reps use
// it rather than the median because their times are often bimodal (a rep
// either catches a GC cycle or does not, a stretch of the host is fast or
// slow), and the median jumps from one mode to the other as the modes'
// shares cross one half, where the mean of the middle half moves smoothly.
func midMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// median returns the median of xs (the lower middle for even counts).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// sampler polls the Go heap (and an optional probe) on a fixed period while
// a measured phase runs, keeping the peak live heap.
type sampler struct {
	stop  chan struct{}
	done  chan struct{}
	peak  uint64
	probe func()
}

// heapLive is the heap the last GC marked live. Unlike the heap in use, it
// leaves out the garbage that piles up between collections, whose amount the
// GC pacer sets from the whole heap (harness inputs included) rather than
// from the program under test.
var heapLive = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

func startSampler(every time.Duration, probe func()) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{}), probe: probe}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		sample := append([]metrics.Sample(nil), heapLive...)
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > s.peak {
				s.peak = v
			}
			if s.probe != nil {
				s.probe()
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the peak live heap, in bytes.
func (s *sampler) Stop() uint64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// liveHeap collects garbage and returns the bytes of live heap objects. It
// collects twice: a sync.Pool's contents, and with them a closed service
// whose pool they sit in, stay reachable until the second collection after
// the last use, and one collection would count a varying number of the
// services set-up reps have closed.
func liveHeap() uint64 {
	runtime.GC() // returns once sweeping is done, so only live objects remain
	runtime.GC()
	sample := append([]metrics.Sample(nil), heapLive...)
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// mb converts bytes to MB.
func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// span is one timed call into a layer, recorded by the benchmark around the
// call. Times are nanoseconds since the recorder started; Parent is the ID
// of the enclosing span (0 at the top).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpansPerName bounds how many spans of one name a traced run keeps in
// memory and writes out; the per-layer quantiles use every call regardless.
const maxSpansPerName = 2000

// recorder keeps a traced run's spans in memory until the run writes them
// out at its end.
type recorder struct {
	t0     time.Time
	nextID int
	spans  []span
	count  map[string]int
}

// newRecorder starts a recorder whose span times count from t0.
func newRecorder(t0 time.Time) *recorder {
	return &recorder{t0: t0, count: make(map[string]int)}
}

// add records a span for [start, end) and returns its ID.
func (r *recorder) add(parent int, layer, name string, start, end time.Time) int {
	r.nextID++
	key := layer + "." + name
	if r.count[key] < maxSpansPerName {
		r.spans = append(r.spans, span{
			ID: r.nextID, Parent: parent, Layer: layer, Name: name,
			Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
		})
	}
	r.count[key]++
	return r.nextID
}
