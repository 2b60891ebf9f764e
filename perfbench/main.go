// Command perfbench is the repository's benchmark. It deploys three
// in-process agent servers over loopback, built the way napletd builds a
// node by default, and runs one seeded workload through the public naplet
// API:
//
//	perfbench --workload bulk|rpc|roam --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload once untraced and once with spans recorded around every
// call into the program, replays the workload's payload sizes through the
// layers below the socket, and prints the per-layer ledger. Human-readable
// lines come first; the last line of standard output is the JSON result.
// Any failed operation or failed check exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"naplet/internal/wire"
)

// workload is one traffic mix. BENCHMARK.json says why each was chosen.
type workload struct {
	name    string
	clients int
}

var workloads = map[string]*workload{
	// One stationary connection, one writer, one reader, 64 KiB writes.
	"bulk": {name: "bulk", clients: 1},
	// Two closed-loop clients doing request/reply with an echo agent.
	"rpc": {name: "rpc", clients: 2},
	// Two roamers hopping among the hosts with their connections.
	"roam": {name: "roam", clients: 2},
}

// rounds is how many deployments a run sets up and measures; setup_s is
// the median of their set-up times. The other figures are chosen by steal
// (see combine).
const rounds = 10

// warmup is how long each round runs before its measured window opens, so
// the transports between every pair of hosts and the location caches are
// in place when timing starts.
const warmup = 500 * time.Millisecond

// stealWindow is the length of the windows a measured phase is cut into;
// each window's share of stolen CPU time is read from /proc/stat. The
// end-to-end figures come from the quarter of the windows of a run with the
// least steal (see combine).
const stealWindow = 250 * time.Millisecond

// stallGap is the longest time the workload may complete no operation
// before the gap counts as a stall. No workload's operation takes more
// than a few milliseconds when the program makes progress.
const stallGap = time.Second

// stopTimeout bounds the end of the measured phase and the teardown.
const stopTimeout = 20 * time.Second

// runTimeout bounds a whole run, so a hang fails the run instead of
// outliving its caller.
const runTimeout = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// corruptAt, when positive, corrupts that measured-phase message (see
	// deployment.corruptAt); only the tests set it.
	corruptAt int64
	// spansPath is where a traced run writes its spans.
	spansPath string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: bulk, rpc or roam")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer ledger of a traced run instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	o.spansPath = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.csv.gz", o.workload, o.seed))
	return execute(o, stdout, stderr)
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func execute(o options, stdout, stderr io.Writer) int {
	wl, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or bad --seconds; want bulk, rpc or roam\n", o.workload)
		return 2
	}
	timer := time.AfterFunc(runTimeout, func() {
		fmt.Fprintf(stderr, "perfbench: %s run exceeded %v\n", wl.name, runTimeout)
		os.Exit(3)
	})
	defer timer.Stop()

	fp, err := hostFingerprint()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: host fingerprint: %v\n", err)
		return 1
	}
	fpJSON, _ := json.Marshal(fp) // plain struct: cannot fail
	fmt.Fprintf(stdout, "host %s\n", fpJSON)

	var res *result
	if o.trace {
		res, err = tracedRun(wl, o, stdout)
	} else {
		res, err = plainRun(wl, o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// phase is what one measured phase of a deployment yields.
type phase struct {
	wall float64 // seconds
	// stalls are the gaps longer than stallGap in which no operation
	// completed; stalled is their total length in seconds.
	stalls  int
	stalled float64
	// The end-to-end figures of the phase; the percentiles are of the
	// operation latency in us.
	opsPerS, goodputMbps, p50, p90, p99 float64
	ops                                 int
	opens                               []float64 // roam's transient Dial times, us
	attempts                            int64
	failed                              int64
	heapMB                              float64

	// Process and program counters over the measured window.
	proc0, proc1     procStat
	mem0, mem1       runtime.MemStats
	gor0, gor1       int
	msgs, payload    int64
	poolHit, poolMis uint64
	transports       int
	violations       []string
	// windows cut the measured phase; steal is the hypervisor's share of
	// the CPU time of the whole phase, 0 if /proc/stat is unreadable.
	windows []window
	steal   float64
}

// window is a stealWindow-long slice of a measured phase and the
// operations that completed in it.
type window struct {
	start, end int64   // ns since the deployment's epoch
	steal      float64 // share of all CPUs' time stolen by the hypervisor
	bytes      int64   // payload bytes verified
	lat        []float64
}

// held is the heap the phase's samples occupy.
func (p *phase) held() int {
	n := cap(p.opens)
	for _, w := range p.windows {
		n += cap(w.lat)
	}
	return 8 * n
}

// watchSteal sleeps for dur and cuts the time into stealWindow-long
// windows, each with its share of stolen CPU time.
func (d *deployment) watchSteal(dur time.Duration) []window {
	steal0, total0, err0 := cpuTicks()
	start := d.now()
	end := start + int64(dur)
	var ws []window
	for t := start; t < end; {
		time.Sleep(time.Duration(min(int64(stealWindow), end-t)))
		now := d.now()
		steal1, total1, err1 := cpuTicks()
		w := window{start: t, end: now}
		if err0 == nil && err1 == nil && total1 > total0 {
			w.steal = float64(steal1-steal0) / float64(total1-total0)
		}
		ws = append(ws, w)
		t, steal0, total0, err0 = now, steal1, total1, err1
	}
	return ws
}

func (p *phase) correct() bool { return len(p.violations) == 0 }

// measure runs the measured phase of a ready deployment and stops it. held
// is the heap the caller's earlier phases keep, which heap_mb leaves out.
func (d *deployment) measure(seconds float64, held int) (*phase, error) {
	p := &phase{}
	d.begin()
	time.Sleep(warmup)
	runtime.GC()
	var err error
	if p.proc0, err = readProc(); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&p.mem0)
	p.gor0 = runtime.NumGoroutine()
	msgs0, pay0 := d.msgs.Load(), d.payload.Load()
	hit0, mis0 := wire.PoolStats()

	p.windows = d.watchSteal(time.Duration(seconds * float64(time.Second)))
	t0, t1 := p.windows[0].start, p.windows[len(p.windows)-1].end
	for _, w := range p.windows {
		p.steal += w.steal * float64(w.end-w.start) / float64(t1-t0)
	}

	if p.proc1, err = readProc(); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&p.mem1)
	p.gor1 = runtime.NumGoroutine()
	p.msgs, p.payload = d.msgs.Load()-msgs0, d.payload.Load()-pay0
	hit1, mis1 := wire.PoolStats()
	p.poolHit, p.poolMis = hit1-hit0, mis1-mis0
	p.transports = d.transportCount()

	if err := d.stop(stopTimeout); err != nil {
		d.violation("%v", err)
	}
	// heap_mb is the program's heap: the samples this benchmark keeps are
	// subtracted.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	own := held
	for _, r := range d.recs {
		own += r.bytes()
	}
	p.heapMB = float64(int(ms.HeapAlloc)-own) / (1 << 20)

	p.wall = float64(t1-t0) / 1e9
	var lat []float64
	var bytes int64
	done := []int64{t0, t1}
	for _, r := range d.recs {
		for _, s := range r.all() {
			if s.t < t0 || s.t > t1 {
				continue
			}
			w := &p.windows[min(len(p.windows)-1, sort.Search(len(p.windows), func(i int) bool { return p.windows[i].end >= s.t }))]
			switch s.kind {
			case sampleOp:
				done = append(done, s.t)
				lat = append(lat, float64(s.lat)/1e3)
				w.lat = append(w.lat, float64(s.lat)/1e3)
			case sampleOpen:
				p.opens = append(p.opens, float64(s.lat)/1e3)
			}
			bytes += s.by
			w.bytes += s.by
		}
	}
	sort.Float64s(lat)
	p.ops = len(lat)
	p.opsPerS = float64(p.ops) / p.wall
	p.goodputMbps = float64(bytes) * 8 / p.wall / 1e6
	p.p50, p.p90, p.p99 = quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99)
	sort.Float64s(p.opens)
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	for i := 1; i < len(done); i++ {
		if gap := done[i] - done[i-1]; gap > int64(stallGap) {
			p.stalls++
			p.stalled += float64(gap) / 1e9
		}
	}
	d.mu.Lock()
	sent, recv := d.bulkSent, d.bulkRecv
	d.mu.Unlock()
	if sent != recv {
		d.violation("bulk writer sent %d messages, sink verified %d", sent, recv)
	}
	p.violations = d.violationList()
	if len(p.violations) > 0 {
		d.mu.Lock()
		for _, w := range d.warnings {
			p.violations = append(p.violations, "program warned: "+w)
		}
		d.mu.Unlock()
	}
	p.failed = d.failed.Load()
	p.attempts = int64(p.ops) + p.failed
	if p.ops == 0 {
		p.violations = append(p.violations, "no operation completed in the measured phase")
	}
	return p, nil
}

// transportCount is the number of distinct live shared transports.
func (d *deployment) transportCount() int {
	ids := map[wire.ConnID]bool{}
	for _, n := range d.nodes {
		for _, info := range n.Controller().TransportInfos() {
			if info.State == "connected" {
				ids[info.ID] = true
			}
		}
	}
	return len(ids)
}

// plainRun measures the workload in rounds, each on a fresh deployment
// for an equal share of the run, and pools the rounds' figures (see
// combine): a deployment's own luck (which goroutine lands on which
// thread, say) then moves no figure of the run.
func plainRun(wl *workload, o options, out io.Writer) (*result, error) {
	steal0, total0, _ := cpuTicks() // only for the steal line; zero if unreadable
	var setup []float64
	var ps []*phase
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		d, err := newDeployment(wl, o.seed, nil, t0, o.corruptAt)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		held := 0
		for _, p := range ps {
			held += p.held()
		}
		p, err := d.measure(o.seconds/rounds, held)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "round %d: setup %.4f s, ops_per_s %.1f, op_p50 %.1f us, op_p90 %.1f us, heap %.2f MB, steal %.1f%%\n",
			r, setup[r], p.opsPerS, p.p50, p.p90, p.heapMB, 100*p.steal)
		if err := d.closeWithin(stopTimeout); err != nil {
			p.violations = append(p.violations, err.Error())
		}
		ps = append(ps, p)
		if !p.correct() {
			break
		}
	}
	p := combine(ps)
	printSummary(out, wl, p)
	fmt.Fprintf(out, "host during the run: %s; figures from the %d windows of %v with at most %.1f%% steal, heap_mb from the %d of %d rounds with the least\n",
		stealShare(steal0, total0), len(p.windows), stealWindow, 100*p.steal, (len(ps)+1)/2, len(ps))
	for _, v := range p.violations {
		fmt.Fprintf(out, "violation: %s\n", v)
	}
	return &result{
		Correct:   p.correct(),
		Attempted: p.attempts,
		Failed:    p.failed,
		Metrics: map[string]metric{
			"setup_s":      {median(setup), "s"},
			"heap_mb":      {p.heapMB, "MB"},
			"goodput_mbps": {p.goodputMbps, "Mb/s"},
			"op_p50_us":    {p.p50, "us"},
			"op_p90_us":    {p.p90, "us"},
			"ops_per_s":    {p.opsPerS, "1/s"},
		},
	}, nil
}

// combine sums the counts of every round. The figures come from the
// quarter of all the rounds' windows from which the hypervisor stole the
// least CPU time, and heap_mb is the median over the half of the rounds
// with the least steal. On a shared host steal comes in bursts and every
// figure follows it: in one roam run, rounds with 2% steal made 465 hops/s
// with a p90 of 2.2 ms, and rounds with 28% steal 246 hops/s with 6.3 ms.
// Windows and rounds are chosen by steal alone, never by their figures.
func combine(ps []*phase) *phase {
	c := &phase{}
	var ws []window
	for _, p := range ps {
		c.wall += p.wall
		c.stalls += p.stalls
		c.stalled += p.stalled
		c.ops += p.ops
		c.opens = append(c.opens, p.opens...)
		c.attempts += p.attempts
		c.failed += p.failed
		c.violations = append(c.violations, p.violations...)
	}
	sort.Float64s(c.opens)

	// Interleave the rounds' windows, so that among windows of equal steal
	// every round gives its share.
	n := 0
	for _, p := range ps {
		n += len(p.windows)
	}
	for k := 0; len(ws) < n; k++ {
		for _, p := range ps {
			if k < len(p.windows) {
				ws = append(ws, p.windows[k])
			}
		}
	}
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].steal < ws[j].steal })
	c.windows = ws[:(len(ws)+3)/4]
	var lat []float64
	var bytes, dur int64
	for _, w := range c.windows {
		lat = append(lat, w.lat...)
		bytes += w.bytes
		dur += w.end - w.start
		c.steal = max(c.steal, w.steal)
	}
	sort.Float64s(lat)
	c.opsPerS = float64(len(lat)) / (float64(dur) / 1e9)
	c.goodputMbps = float64(bytes) * 8 / float64(dur) * 1e3
	c.p50, c.p90, c.p99 = quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99)

	calm := append([]*phase(nil), ps...)
	sort.SliceStable(calm, func(i, j int) bool { return calm[i].steal < calm[j].steal })
	var heap []float64
	for _, p := range calm[:(len(calm)+1)/2] {
		heap = append(heap, p.heapMB)
	}
	c.heapMB = median(heap)
	return c
}

// printSummary prints the workload's results under the names its claims
// use: op is a 64 KiB message for bulk, a round trip for rpc, a hop for
// roam.
func printSummary(out io.Writer, wl *workload, p *phase) {
	fmt.Fprintf(out, "%s: %d ops in %.3fs, %d failed, %d stalls over %.3fs\n",
		wl.name, p.ops, p.wall, p.failed, p.stalls, p.stalled)
	switch wl.name {
	case "bulk":
		fmt.Fprintf(out, "  goodput_mbps %.1f Mb/s  msg_p50 %.1f us  msg_p90 %.1f us  msg_p99 %.1f us\n",
			p.goodputMbps, p.p50, p.p90, p.p99)
	case "rpc":
		fmt.Fprintf(out, "  rtt_p50_us %.1f us  rtt_p90_us %.1f us  rtt_p99_us %.1f us  round_trips_per_s %.0f 1/s\n",
			p.p50, p.p90, p.p99, p.opsPerS)
	case "roam":
		fmt.Fprintf(out, "  hop_p50_ms %.3f ms  hop_p90_ms %.3f ms  hop_p99_ms %.3f ms  hops_per_s %.1f 1/s  open_p50_ms %.3f ms  open_p99_ms %.3f ms (%d opens)\n",
			p.p50/1e3, p.p90/1e3, p.p99/1e3, p.opsPerS,
			quantile(p.opens, 0.5)/1e3, quantile(p.opens, 0.99)/1e3, len(p.opens))
	}
	fmt.Fprintf(out, "  heap_mb %.2f MB\n", p.heapMB)
}

// median returns the median of values, which it sorts.
func median(values []float64) float64 {
	sort.Float64s(values)
	return quantile(values, 0.5)
}

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks; 0 when there are none (a run
// without operations fails its checks anyway).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
