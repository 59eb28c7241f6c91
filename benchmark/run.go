package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/analysis"
)

// Run shape shared by every workload: set-up (timed) → warm-up
// (discarded) → measured window cut into slices → drain → peak memory
// read → output checks → the remaining set-up rounds.
const (
	// Set-up is repeated until it was timed at least setupRoundsMin times
	// and for setupSeconds in all: a workload whose set-up takes 0.2 s gets
	// as many seconds of measurement behind its median as one whose set-up
	// takes 1.5 s.
	setupRoundsMin = 3
	setupRoundsMax = 20
	setupSeconds   = 3.0
	sliceCount     = 5
	// The box reports nproc=2; load is one process, at most two
	// generator goroutines, and the program under test gets both cores.
	pinnedProcs = 2
)

// epoch starts the run clock every timestamp of a run is read from.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// options are the inputs of one run.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// scale divides every size (sessions, decks, corpus, shard,
	// microbenchmark samples); 1 is the benchmark, 50 the smoke test.
	scale  int
	outDir string
}

// scaled divides a full-size quantity by the run's scale, never below lo.
func (o options) scaled(n, lo int) int {
	n /= o.scale
	if n < lo {
		return lo
	}
	return n
}

// warmup is 3 s of a 20 s window, shrinking with it for the smoke test.
func (o options) warmup() time.Duration {
	return time.Duration(o.seconds * 0.15 * float64(time.Second))
}

// workload is one benchmark scenario. setup builds the system under
// test and the generator's inputs from the seed; everything it returns
// is torn down by instance.close.
type workload struct {
	name  string
	why   string
	unit  string // what one unit of throughput is
	hops  string // which hops crossed loopback TCP vs. memconn
	setup func(o options) (instance, error)
}

// instance is a set-up workload. drive runs the closed loop(s) until the
// recorder says stop, then drains in-flight work; check runs the output
// checks afterwards and returns one line per failure; layers adds, in a
// traced run, the per-layer metrics of the layers this workload reaches:
// counters and histograms its own targets saw, and direct calls into
// those layers' public functions.
type instance interface {
	drive(rec *recorder)
	check() []string
	layers(o options, m map[string]float64) error
	close()
}

// span is one traced interval. Spans of one operation share Op; a root
// span has an empty Parent and is appended after its children.
type span struct {
	Name    string `json:"name"`
	Op      int64  `json:"op"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// lane is one generator's private record: no locks on the measured
// path. A lane fed from several goroutines is guarded by its owner.
type lane struct {
	rec *recorder
	// What the window's metrics are folded from: per slice, the units of
	// work completed and the latency (µs) of every operation that ended in
	// it. Four bytes a sample keep the harness's own memory small beside
	// the system's.
	units     [sliceCount]float64
	lats      [sliceCount][]float32
	attempted int64
	failed    int64
	failNotes []string
	// Traced runs only: spans, how long the generator loops ran and how
	// much of that they spent blocked waiting on the system (wall − wait
	// is the generator's own cost).
	spans  []span
	wallNs int64
	waitNs int64
	nextOp int64
}

// op records one completed operation: its interval on the run clock and
// how many throughput units it carried. The units are spread evenly over
// the operation's own interval, so a slice edge cutting a long operation
// (a zone shard, a tip fan-out) splits it instead of quantising the
// slice's count.
func (l *lane) op(start, end, units int64) {
	l.attempted++
	r := l.rec
	if end <= r.begin || start >= r.begin+sliceCount*r.slice {
		return
	}
	for i := range l.units {
		lo := r.begin + int64(i)*r.slice
		l.units[i] += float64(units) * overlap(float64(start), float64(end), float64(lo), float64(lo+r.slice))
	}
	if i := (end - r.begin - 1) / r.slice; i < sliceCount {
		l.lats[i] = append(l.lats[i], float32(float64(end-start)/1e3))
	}
}

func (l *lane) fail(format string, args ...any) {
	l.attempted++
	l.failed++
	if len(l.failNotes) < 4 {
		l.failNotes = append(l.failNotes, fmt.Sprintf(format, args...))
	}
}

func (l *lane) span(name, parent string, op, start, end int64) {
	l.spans = append(l.spans, span{Name: name, Op: op, Parent: parent, StartNs: start, EndNs: end})
}

// recorder hands out lanes and tells generators when the measured
// window is over. The window is planned before the generators start:
// sliceCount slices of slice nanoseconds from begin on the run clock.
type recorder struct {
	stop         chan struct{}
	trace        bool
	begin, slice int64

	mu    sync.Mutex
	lanes []*lane
}

func newRecorder(o options) *recorder {
	return &recorder{
		stop:  make(chan struct{}),
		trace: o.trace,
		begin: now() + int64(o.warmup()),
		slice: int64(o.seconds * float64(time.Second) / sliceCount),
	}
}

func (r *recorder) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

func (r *recorder) lane() *lane {
	l := &lane{rec: r}
	r.mu.Lock()
	l.nextOp = int64(len(r.lanes)) << 40 // op ids unique across lanes
	r.lanes = append(r.lanes, l)
	r.mu.Unlock()
	return l
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run produced.
type result struct {
	workload  string
	attempted int64
	failed    int64
	fails     []string
	e2e       map[string]metric
	layer     map[string]metric // traced runs only

	samples int
	// Per slice, as measured: throughput, CPU per 1,000 ops, and the box's
	// speed; the end-to-end metrics are medians of the first two after
	// each was restated at the third.
	sliceRates, sliceCPU, sliceP50, sliceSpeed []float64
	// Per set-up round: measured seconds and the box's speed meanwhile.
	setups, setupSpeed []float64
	speed              float64 // the box's speed over the whole window
	// Resident MB right after set-up and after the drained run, and the
	// box's speed in between: retained_rss_mb's inputs.
	baseMB, heldMB, driveSpeed float64
	rawP50, p99, max           float64 // µs as measured
	stages                     []stage // traced runs: the latency budget
	lateness                   float64 // the latest a slice edge was read, µs (harness health)
}

func (r *result) correct() bool { return r.failed == 0 && len(r.fails) == 0 }

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// residentMB is the process's current resident set, from
// /proc/self/statm (second field, in pages).
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}

func runtimeMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func heapMB() float64 {
	return float64(runtimeMetric("/memory/classes/heap/objects:bytes")) / (1 << 20)
}

// allocBytes is the total ever allocated on the heap.
func allocBytes() uint64 { return runtimeMetric("/gc/heap/allocs:bytes") }

// runWorkload executes one full run of w: set up, measure, tear down,
// then the remaining set-up rounds (an untraced run only: setup_s is an
// end-to-end metric). Those run after the measurements so that what a
// round leaves behind cannot land in the run's memory or CPU numbers;
// setup_s is the median of all rounds, each restated at the box's speed
// during that round.
func runWorkload(w *workload, o options) (*result, error) {
	runtime.GOMAXPROCS(pinnedProcs)
	cal := startCalibrator()
	defer cal.stop()
	var setups, speeds []float64
	timedSetup := func() (instance, error) {
		t0 := now()
		inst, err := w.setup(o)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		t1 := now()
		speed, _ := cal.between(t0, t1)
		setups, speeds = append(setups, float64(t1-t0)/1e9), append(speeds, speed)
		return inst, nil
	}
	inst, err := timedSetup()
	if err != nil {
		return nil, err
	}
	res, err := measure(w, o, inst, cal)
	inst.close()
	if err != nil {
		return nil, err
	}
	for total := setups[0]; !o.trace && len(setups) < setupRoundsMax && (len(setups) < setupRoundsMin || total < setupSeconds); total += setups[len(setups)-1] {
		runtime.GC() // untimed: the last round's garbage
		if inst, err = timedSetup(); err != nil {
			return nil, err
		}
		inst.close()
	}
	res.setups, res.setupSpeed = setups, speeds
	stated := make([]float64, len(setups))
	for i := range setups {
		stated[i] = setups[i] * speeds[i]
	}
	res.e2e["setup_s"] = metric{analysis.Median(stated), "s"}
	return res, nil
}

// measure drives a set-up instance through warm-up and window, folds
// what the generators recorded into the end-to-end metrics, runs the
// output checks and, in a traced run, collects the layer metrics.
func measure(w *workload, o options, inst instance, cal *calibrator) (*result, error) {
	debug.FreeOSMemory()
	base := residentMB() // what set-up built, before any load
	rec := newRecorder(o)
	driven := make(chan struct{})
	go func() {
		inst.drive(rec)
		close(driven)
	}()

	var goroutinesPeak int
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		if !o.trace {
			return
		}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-rec.stop:
				return
			case <-tick.C:
				if n := runtime.NumGoroutine(); n > goroutinesPeak {
					goroutinesPeak = n
				}
			}
		}
	}()

	// The window: process CPU time is read at every slice edge, so each
	// slice has its own throughput, its own CPU cost and its own reading of
	// the box's speed, and the reported numbers are medians over slices —
	// one slice hit by a noisy neighbour does not move them.
	edge := func(i int) int64 { return rec.begin + int64(i)*rec.slice }
	var (
		cpus   [sliceCount + 1]time.Duration
		readAt [sliceCount + 1]int64 // a saturated runtime wakes the sleeper late
		late   int64
		gc0    debug.GCStats
		alloc0 uint64
	)
	for i := range cpus {
		time.Sleep(time.Duration(edge(i) - now()))
		cpus[i], readAt[i] = cpuTime(), now()
		late = max(late, readAt[i]-edge(i))
		if i == 0 {
			debug.ReadGCStats(&gc0)
			alloc0 = allocBytes()
		}
	}
	var gc1 debug.GCStats
	debug.ReadGCStats(&gc1)
	heap, alloc1 := heapMB(), allocBytes()
	close(rec.stop)
	<-driven
	<-sampled
	peak := peakRSSMB()

	res := &result{workload: w.name, lateness: float64(late) / 1e3}
	res.speed, _ = cal.between(edge(0), edge(sliceCount))

	// Fold the lanes slice by slice: each slice's throughput, CPU cost and
	// median latency is restated at the box's speed during that slice, and
	// the end-to-end metric is the median over the slices.
	var (
		all               []float64
		total             float64 // units completed in the window
		spans             []span
		genNs             int64
		rates, cpuKs, p50 []float64
	)
	for _, l := range rec.lanes {
		res.attempted += l.attempted
		res.failed += l.failed
		res.fails = append(res.fails, l.failNotes...)
		spans = append(spans, l.spans...)
		genNs += l.wallNs - l.waitNs
	}
	for i := 0; i < sliceCount; i++ {
		var (
			units float64
			lats  []float64
		)
		for _, l := range rec.lanes {
			units += l.units[i]
			for _, v := range l.lats[i] {
				lats = append(lats, float64(v))
			}
			l.lats[i] = nil
		}
		if len(lats) == 0 {
			return nil, fmt.Errorf("%s: no operation completed in slice %d of the %v window", w.name, i+1, time.Duration(sliceCount*rec.slice))
		}
		total += units
		speed, calCPU := cal.between(edge(i), edge(i+1))
		rate := units / (float64(rec.slice) / 1e9)
		// CPU per second between the two reads, times the slice's length.
		cpu := float64(cpus[i+1]-cpus[i]) / float64(readAt[i+1]-readAt[i]) * float64(rec.slice)
		cpuK := (cpu - float64(calCPU)) / 1e6 / (units / 1000)
		res.sliceRates = append(res.sliceRates, rate)
		res.sliceCPU = append(res.sliceCPU, cpuK)
		res.sliceP50 = append(res.sliceP50, pct(lats, 0.5))
		res.sliceSpeed = append(res.sliceSpeed, speed)
		rates, cpuKs, p50 = append(rates, rate/speed), append(cpuKs, cpuK*speed), append(p50, pct(lats, 0.5)*speed)
		all = append(all, lats...)
	}
	sort.Float64s(all)
	res.samples = len(all)
	res.rawP50, res.p99, res.max = pct(all, 0.5), pct(all, 0.99), all[len(all)-1]
	all = nil
	// What the system still holds once the run has drained and its garbage
	// — and the harness's own samples — are gone: read before the output
	// checks (which replay archives and copy books) and before the later
	// set-up rounds. The high-water mark (peak) rides the collector's
	// sawtooth; this does not. What a system keeps per operation (the
	// federated nodes keep every share) it keeps more of on a faster box,
	// so the growth since set-up is restated like a rate: at the box's
	// speed over the whole drive.
	debug.FreeOSMemory()
	res.baseMB, res.heldMB = base, residentMB()
	res.driveSpeed, _ = cal.between(rec.begin-int64(o.warmup()), edge(sliceCount))
	retained := base + (res.heldMB-base)/res.driveSpeed
	res.e2e = map[string]metric{
		"throughput_per_s": {analysis.Median(rates), "1/s"},
		"latency_p50_us":   {analysis.Median(p50), "us"},
		"cpu_ms_per_kop":   {analysis.Median(cpuKs), "ms"},
		"retained_rss_mb":  {retained, "MB"},
	}
	res.fails = append(res.fails, inst.check()...)
	if !o.trace {
		return res, nil
	}

	// Traced run: the layer numbers. Every listed metric is reported;
	// those of layers this workload never reaches stay 0.
	m := map[string]float64{}
	for _, lm := range layerMetrics {
		m[lm.name] = 0
	}
	if err := inst.layers(o, m); err != nil {
		return nil, fmt.Errorf("%s: layer metrics: %w", w.name, err)
	}
	m["e2e.latency_p99_us"], m["e2e.latency_max_us"] = res.p99, res.max
	m["e2e.raw_throughput_per_s"] = analysis.Median(res.sliceRates)
	m["e2e.raw_latency_p50_us"] = res.rawP50
	m["e2e.raw_cpu_ms_per_kop"] = analysis.Median(res.sliceCPU)
	m["box.speed"] = res.speed
	m["runtime.gc_pause_ms"] = float64(gc1.PauseTotal-gc0.PauseTotal) / 1e6
	m["runtime.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	m["runtime.goroutines_peak"] = float64(goroutinesPeak)
	m["runtime.heap_mb"] = heap
	m["runtime.peak_rss_mb"] = peak
	m["runtime.alloc_bytes_per_op"] = float64(alloc1-alloc0) / total
	// Generator cost per op: loop time not spent blocked on the system,
	// over every op of the run (warm-up included).
	m["gen.loop_overhead_us"] = float64(genNs) / 1e3 / float64(res.attempted)
	m["trace.throughput_per_s"] = res.e2e["throughput_per_s"].Value
	m["trace.latency_p50_us"] = res.e2e["latency_p50_us"].Value
	m["trace.spans"] = float64(len(spans))
	table := spanTable(spans)
	res.stages = latencyBudget(w.name, table, m, res.rawP50)
	m["trace.residual_us"] = res.stages[len(res.stages)-1].p50
	res.layer = map[string]metric{}
	for _, lm := range layerMetrics {
		res.layer[lm.name] = metric{m[lm.name], lm.unit}
	}
	if len(m) != len(res.layer) {
		return nil, fmt.Errorf("%s: a layer metric was measured that layerMetrics does not list", w.name)
	}
	return res, writeTrace(o.outDir, res, table, spans)
}

// overlap is the share of [s,e] that falls inside [lo,hi]; an instant
// counts wholly for the interval that holds it.
func overlap(s, e, lo, hi float64) float64 {
	if e <= s {
		if e > lo && e <= hi {
			return 1
		}
		return 0
	}
	a, b := s, e
	if lo > a {
		a = lo
	}
	if hi < b {
		b = hi
	}
	if b <= a {
		return 0
	}
	return (b - a) / (e - s)
}
