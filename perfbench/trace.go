package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names the layer boundary a span was recorded around. Spans are
// recorded by this benchmark's own code around its calls into the program;
// the program itself is not instrumented.
type spanKind uint8

const (
	spanOp       spanKind = iota + 1 // one workload operation (write, round trip, landing)
	spanHop                          // MigrateTo return .. carried conns re-attached + verified round trip
	spanDepart                       // MigrateTo return .. end of the controller's PreDepart
	spanArrive                       // location update done .. end of the controller's PostArrive
	spanAttach                       // naplet.Attach
	spanDial                         // naplet.Dial
	spanAccept                       // ServerSocket.Accept
	spanWrite                        // Socket.Write / WriteMsg
	spanRead                         // Socket.Read / ReadMsg
	spanClose                        // Socket.Close
	spanLookup                       // Directory.Lookup
	spanUpdate                       // Directory.Update
	spanRegister                     // Directory.Register / Deregister
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanOp: "op", spanHop: "agent.hop", spanDepart: "core.depart", spanArrive: "core.arrive",
	spanAttach: "core.attach", spanDial: "core.dial", spanAccept: "core.accept",
	spanWrite: "core.write", spanRead: "core.read", spanClose: "core.close",
	spanLookup: "naming.lookup", spanUpdate: "naming.update", spanRegister: "naming.register",
}

func (k spanKind) String() string { return spanNames[k] }

// span is one timed call. Times are nanoseconds since the tracer's epoch on
// the monotonic clock, so spans recorded on different goroutines (an agent,
// its host's dock, the location service client) compare directly.
type span struct {
	kind       spanKind
	id, parent uint32
	op         uint64
	start, end int64
	// rudp is the number of control-channel requests the deployment sent
	// while the span ran (hops, dials and closes only).
	rudp uint64
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced runs stay free of tracing cost.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint32
	mu     sync.Mutex
	spans  []span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// begin opens a span; the caller passes it to end when the call returns.
func (t *tracer) begin(kind spanKind, op uint64, parent uint32) span {
	if t == nil {
		return span{}
	}
	return span{kind: kind, id: t.nextID.Add(1), parent: parent, op: op, start: int64(time.Since(t.epoch))}
}

// newID reserves a span id for a span whose start lies in the past (a hop
// starts on the origin host and ends on the destination).
func (t *tracer) newID() uint32 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.end = int64(time.Since(t.epoch))
	t.add(s)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanStats is what the ledger reads from one traced run: per kind, the
// span count, the summed duration and the summed self time (duration minus
// the union of its children's intervals).
type spanStats struct {
	count [numSpanKinds]int
	dur   [numSpanKinds]int64
	self  [numSpanKinds]int64
	rudp  [numSpanKinds]uint64
}

func (s *spanStats) meanDur(k spanKind) float64 {
	if s.count[k] == 0 {
		return 0
	}
	return float64(s.dur[k]) / float64(s.count[k])
}

func (s *spanStats) meanSelf(k spanKind) float64 {
	if s.count[k] == 0 {
		return 0
	}
	return float64(s.self[k]) / float64(s.count[k])
}

func (s *spanStats) meanRUDP(k spanKind) float64 {
	if s.count[k] == 0 {
		return 0
	}
	return float64(s.rudp[k]) / float64(s.count[k])
}

// analyze computes per-kind totals and self times, and checks the spans'
// sanity: every parent was recorded, no child lies outside its parent, and
// no span ends before it starts. A violation is an error.
func analyze(spans []span) (*spanStats, error) {
	byID := make(map[uint32]int, len(spans))
	for i, s := range spans {
		if s.end < s.start {
			return nil, fmt.Errorf("span %s#%d ends %dns before it starts", s.kind, s.id, s.start-s.end)
		}
		byID[s.id] = i
	}
	children := make(map[uint32][][2]int64)
	for _, s := range spans {
		if s.parent == 0 {
			continue
		}
		pi, ok := byID[s.parent]
		if !ok {
			return nil, fmt.Errorf("span %s#%d names parent #%d, which was never recorded", s.kind, s.id, s.parent)
		}
		p := spans[pi]
		if s.start < p.start || s.end > p.end {
			return nil, fmt.Errorf("span %s#%d [%d,%d] lies outside its parent %s#%d [%d,%d]",
				s.kind, s.id, s.start, s.end, p.kind, p.id, p.start, p.end)
		}
		children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
	}
	st := &spanStats{}
	for _, s := range spans {
		d := s.end - s.start
		self := d - covered(children[s.id])
		if self < 0 {
			return nil, fmt.Errorf("span %s#%d has negative self time %dns", s.kind, s.id, self)
		}
		st.count[s.kind]++
		st.dur[s.kind] += d
		st.self[s.kind] += self
		st.rudp[s.kind] += s.rudp
	}
	return st, nil
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
		} else if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// writeSpans writes the spans as gzipped CSV, one span a line: kind, id,
// parent, op, start and end in ns since the run's epoch, and the control
// requests sent while it ran.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "kind,id,parent,op,start_ns,end_ns,rudp_requests")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d\n", s.kind, s.id, s.parent, s.op, s.start, s.end, s.rudp)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
