package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"naplet/internal/metrics"
)

// tracedRun measures the workload twice on fresh deployments, each for half
// of the run: untraced, which gives the counters of the ledger and the
// baseline for the tracing overhead, then traced, which gives the spans.
// The layer replay follows. The per-layer metrics are printed as the
// result.
func tracedRun(wl *workload, o options, out io.Writer) (*result, error) {
	half := o.seconds / 2
	steal0, total0, _ := cpuTicks() // only for the steal line; zero if unreadable

	dA, err := newDeployment(wl, o.seed, nil, time.Now(), o.corruptAt)
	if err != nil {
		return nil, err
	}
	pA, err := dA.measure(half, 0)
	if err != nil {
		return nil, err
	}
	if err := dA.closeWithin(stopTimeout); err != nil {
		pA.violations = append(pA.violations, err.Error())
	}
	fmt.Fprintln(out, "untraced pass:")
	printSummary(out, wl, pA)

	epoch := time.Now()
	tr := newTracer(epoch)
	dB, err := newDeployment(wl, o.seed, tr, epoch, 0)
	if err != nil {
		return nil, err
	}
	pB, err := dB.measure(half, pA.held())
	if err != nil {
		return nil, err
	}
	if err := dB.closeWithin(stopTimeout); err != nil {
		pB.violations = append(pB.violations, err.Error())
	}
	fmt.Fprintln(out, "traced pass:")
	printSummary(out, wl, pB)

	spans := tr.snapshot()
	if len(spans) == 0 {
		return nil, errors.New("traced run recorded no spans")
	}
	st, err := analyze(spans)
	if err != nil {
		return nil, fmt.Errorf("span sanity: %w", err)
	}
	if err := writeSpans(o.spansPath, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "%d spans written to %s\n", len(spans), o.spansPath)

	// Records are sealed at the size the untraced pass flushed.
	record := int(ratio(sumCounter(dA, "data.bytes"), sumCounter(dA, "data.flushes")))
	rp, err := replayLayers(replaySizes(wl, o.seed), max(64, min(record, 64<<10)))
	if err != nil {
		return nil, err
	}

	m := ledger(dA, pA, st, rp)
	m["trace.spans"] = metric{float64(len(spans)), "count"}
	m["core.stalls"] = metric{float64(pA.stalls + pB.stalls), "count"}
	m["trace.overhead_pct"] = metric{100 * (pA.opsPerS - pB.opsPerS) / pA.opsPerS, "%"}
	printLedger(out, m)
	// The resume's management phase runs only when a resume retries, which
	// none of the workloads makes it do: the ledger prints its zero, but
	// the result leaves it out rather than report a constant time.
	delete(m, "core.resume.management_ms")
	fmt.Fprintf(out, "tracing overhead: ops_per_s %.1f untraced vs %.1f traced; op_p50 %.1f vs %.1f us\n",
		pA.opsPerS, pB.opsPerS, pA.p50, pB.p50)
	fmt.Fprintf(out, "host during the run: %s\n", stealShare(steal0, total0))

	violations := append(pA.violations, pB.violations...)
	for _, v := range violations {
		fmt.Fprintf(out, "violation: %s\n", v)
	}
	return &result{
		Correct:   len(violations) == 0,
		Attempted: pA.attempts + pB.attempts,
		Failed:    pA.failed + pB.failed,
		Metrics:   m,
	}, nil
}

// replaySizes are the payload sizes of the workload's messages.
func replaySizes(wl *workload, seed int64) []int {
	if wl.name == "bulk" {
		return []int{bulkMsg, bulkMsg, bulkMsg, bulkMsg}
	}
	sizes := make([]int, 1024)
	for i := range sizes {
		sizes[i] = msgSize(key(seed, homeStream(0), uint64(i)))
	}
	return sizes
}

// ledger computes the per-layer metrics. Counters come from the untraced
// deployment dA and its measured phase pA; times of calls come from the
// traced spans; the layers below the socket come from the replay.
func ledger(dA *deployment, pA *phase, st *spanStats, rp replayResult) map[string]metric {
	m := map[string]metric{}
	msgs := float64(pA.msgs)

	writeNs := st.meanDur(spanWrite)
	m["core.write_ns_per_msg"] = metric{writeNs, "ns"}
	m["core.read_ns_per_msg"] = metric{st.meanDur(spanRead), "ns"}
	m["core.unaccounted_ns_per_msg"] = metric{writeNs - rp.encodeNs - rp.streamNs, "ns"}

	opens := sumCounter(dA, "conn.opens")
	suspends := sumCounter(dA, "conn.suspends")
	resumes := sumCounter(dA, "conn.resumes")
	for _, ph := range metrics.OpenPhases() {
		m["core.open."+string(ph)+"_ms"] = metric{phaseMs(dA.openBD, ph, opens), "ms"}
	}
	for _, ph := range metrics.SuspendPhases() {
		m["core.suspend."+string(ph)+"_ms"] = metric{phaseMs(dA.suspBD, ph, suspends), "ms"}
	}
	for _, ph := range metrics.ResumePhases() {
		m["core.resume."+string(ph)+"_ms"] = metric{phaseMs(dA.resumeBD, ph, resumes), "ms"}
	}
	m["core.depart_ms"] = metric{st.meanDur(spanDepart) / 1e6, "ms"}
	m["core.arrive_ms"] = metric{st.meanDur(spanArrive) / 1e6, "ms"}
	m["core.attach_ms"] = metric{st.meanDur(spanAttach) / 1e6, "ms"}
	m["core.close_ms"] = metric{st.meanDur(spanClose) / 1e6, "ms"}

	m["agent.transfer_ms"] = metric{st.meanSelf(spanHop) / 1e6, "ms"}

	m["naming.lookup_us"] = metric{st.meanDur(spanLookup) / 1e3, "us"}
	m["naming.update_us"] = metric{st.meanDur(spanUpdate) / 1e3, "us"}
	calls := st.count[spanLookup] + st.count[spanUpdate] + st.count[spanRegister]
	m["naming.calls_per_hop"] = metric{ratio(float64(calls), float64(st.count[spanHop])), "count"}
	var hits, lookups uint64
	for _, n := range dA.nodes {
		if cs, ok := n.Controller().LocationCacheStats(); ok {
			hits += cs.Hits
			lookups += cs.Hits + cs.Misses
		}
	}
	m["naming.cache_hit_rate"] = metric{ratio(float64(hits), float64(lookups)), "ratio"}

	var sent, retx, dups, handled uint64
	for _, n := range dA.nodes {
		cs := n.Controller().ControlStats()
		sent += cs.RequestsSent
		retx += cs.Retransmits
		dups += cs.DuplicateRequests
		handled += cs.HandlerInvoked
	}
	m["rudp.requests_per_hop"] = metric{st.meanRUDP(spanHop), "count"}
	m["rudp.requests_per_open"] = metric{st.meanRUDP(spanDial), "count"}
	m["rudp.retransmit_ratio"] = metric{ratio(float64(retx), float64(sent)), "ratio"}
	m["rudp.duplicate_ratio"] = metric{ratio(float64(dups), float64(handled)), "ratio"}

	m["transport.count"] = metric{float64(pA.transports), "count"}
	m["transport.reconnects"] = metric{sumCounter(dA, "transport.reconnects"), "count"}
	m["transport.resumed_streams"] = metric{sumCounter(dA, "transport.resumed_streams"), "count"}
	m["transport.stream_ns_per_msg"] = metric{rp.streamNs, "ns"}

	flushes := sumCounter(dA, "data.flushes")
	m["wire.frames_per_flush"] = metric{ratio(sumCounter(dA, "data.frames"), flushes), "count"}
	m["wire.bytes_per_flush"] = metric{ratio(sumCounter(dA, "data.bytes"), flushes), "B"}
	m["wire.pool_hit_rate"] = metric{ratio(float64(pA.poolHit), float64(pA.poolHit+pA.poolMis)), "ratio"}
	m["wire.encode_ns_per_msg"] = metric{rp.encodeNs, "ns"}
	m["wire.decode_ns_per_msg"] = metric{rp.decodeNs, "ns"}

	m["security.seal_ns_per_kb"] = metric{rp.sealNsPerKB, "ns"}
	m["security.open_ns_per_kb"] = metric{rp.openNsPerKB, "ns"}

	cpu := (pA.proc1.cpu - pA.proc0.cpu).Seconds()
	m["proc.write_syscalls_per_msg"] = metric{ratio(float64(pA.proc1.syscw-pA.proc0.syscw), msgs), "count"}
	m["proc.read_syscalls_per_msg"] = metric{ratio(float64(pA.proc1.syscr-pA.proc0.syscr), msgs), "count"}
	csw := (pA.proc1.nvcsw - pA.proc0.nvcsw) + (pA.proc1.nivcsw - pA.proc0.nivcsw)
	m["proc.ctx_switches_per_msg"] = metric{ratio(float64(csw), msgs), "count"}
	m["proc.cpu_us_per_msg"] = metric{ratio(cpu*1e6, msgs), "us"}
	m["proc.cpu_util"] = metric{cpu / pA.wall / float64(runtime.NumCPU()), "ratio"}

	m["go.alloc_bytes_per_payload_byte"] = metric{ratio(float64(pA.mem1.TotalAlloc-pA.mem0.TotalAlloc), float64(pA.payload)), "ratio"}
	m["go.allocs_per_msg"] = metric{ratio(float64(pA.mem1.Mallocs-pA.mem0.Mallocs), msgs), "count"}
	m["go.gc_per_s"] = metric{float64(pA.mem1.NumGC-pA.mem0.NumGC) / pA.wall, "1/s"}
	m["go.goroutines_delta"] = metric{float64(pA.gor1 - pA.gor0), "count"}
	return m
}

// ledgerOrder is the order the ledger is printed in, layer by layer.
var ledgerOrder = []string{
	"core.write_ns_per_msg", "core.read_ns_per_msg", "core.unaccounted_ns_per_msg",
	"core.open.management_ms", "core.open.handshaking_ms", "core.open.security-check_ms",
	"core.open.key-exchange_ms", "core.open.open-socket_ms",
	"core.suspend.handshaking_ms", "core.suspend.drain_ms", "core.suspend.serialize_ms",
	"core.resume.management_ms", "core.resume.handshaking_ms", "core.resume.open-socket_ms",
	"core.depart_ms", "core.arrive_ms", "core.attach_ms", "core.close_ms", "core.stalls",
	"agent.transfer_ms",
	"naming.lookup_us", "naming.update_us", "naming.calls_per_hop", "naming.cache_hit_rate",
	"rudp.requests_per_hop", "rudp.requests_per_open", "rudp.retransmit_ratio", "rudp.duplicate_ratio",
	"transport.count", "transport.reconnects", "transport.resumed_streams", "transport.stream_ns_per_msg",
	"wire.frames_per_flush", "wire.bytes_per_flush", "wire.pool_hit_rate", "wire.encode_ns_per_msg", "wire.decode_ns_per_msg",
	"security.seal_ns_per_kb", "security.open_ns_per_kb",
	"proc.write_syscalls_per_msg", "proc.read_syscalls_per_msg", "proc.ctx_switches_per_msg",
	"proc.cpu_us_per_msg", "proc.cpu_util",
	"go.alloc_bytes_per_payload_byte", "go.allocs_per_msg", "go.gc_per_s", "go.goroutines_delta",
	"trace.overhead_pct", "trace.spans",
}

func printLedger(out io.Writer, m map[string]metric) {
	for _, name := range ledgerOrder {
		v := m[name]
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", name, v.Value, v.Unit)
	}
}

func sumCounter(d *deployment, name string) float64 {
	var n uint64
	for _, r := range d.regs {
		n += r.Counter(name).Value()
	}
	return float64(n)
}

// phaseMs is the time one phase took per operation, summed over the hosts'
// breakdowns.
func phaseMs(bds []*metrics.Breakdown, ph metrics.Phase, ops float64) float64 {
	var total time.Duration
	for _, bd := range bds {
		total += bd.Get(ph)
	}
	return ratio(float64(total)/1e6, ops)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
