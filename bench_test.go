package naplet

// Benchmark harness: one benchmark (or benchmark family) per table and
// figure of the paper's evaluation, plus micro-benchmarks of the
// substrates. Run everything with:
//
//	go test -bench=. -benchmem
//
// The repro CLI (cmd/repro) prints the corresponding paper-style tables;
// these benchmarks put the same workloads under the Go benchmark harness
// so regressions are visible in ns/op and MB/s.

import (
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"naplet/internal/experiments"
	"naplet/internal/model"
	"naplet/internal/rudp"
	"naplet/internal/ttcp"
	"naplet/internal/wire"
)

// ---- Table 1: open/close latency ----

func BenchmarkTable1_OpenCloseTCP(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}

func benchOpenClose(b *testing.B, secure bool) {
	p, err := experiments.NewBenchPair(secure)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.OpenClose(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_OpenCloseNapletInsecure(b *testing.B) { benchOpenClose(b, false) }
func BenchmarkTable1_OpenCloseNapletSecure(b *testing.B)   { benchOpenClose(b, true) }

// ---- Section 4.2 / Figure 8: suspend+resume vs close+reopen ----

func BenchmarkSec42_SuspendResume(b *testing.B) {
	p, err := experiments.NewBenchPair(true)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.SuspendResume(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec42_CloseReopen(b *testing.B) {
	// The alternative the paper compares against: tearing the connection
	// down and opening a new one (here: one full secure open+close).
	benchOpenClose(b, true)
}

// ---- Figure 7: full reliable-delivery trace ----

func BenchmarkFig7_ReliableTraceRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(12, 500*time.Microsecond, []int{4, 8})
		if err != nil {
			b.Fatal(err)
		}
		if res.Total != 12 {
			b.Fatalf("delivered %d", res.Total)
		}
	}
}

// ---- Figure 9: throughput vs message size ----

func benchThroughputNaplet(b *testing.B, msgSize int) {
	p, err := experiments.NewBenchPair(true)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	errs := make(chan error, 1)
	total := int64(b.N) * int64(msgSize)
	go func() {
		_, err := ttcp.Receive(p.Server, 64<<10, total)
		errs <- err
	}()
	b.SetBytes(int64(msgSize))
	b.ResetTimer()
	if _, err := ttcp.Send(p.Client, msgSize, total); err != nil {
		b.Fatal(err)
	}
	if err := <-errs; err != nil {
		b.Fatal(err)
	}
}

func benchThroughputTCP(b *testing.B, msgSize int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	acc := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			acc <- c
		}
	}()
	sender, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer sender.Close()
	sink := <-acc
	defer sink.Close()
	errs := make(chan error, 1)
	total := int64(b.N) * int64(msgSize)
	go func() {
		_, err := ttcp.Receive(sink, 64<<10, total)
		errs <- err
	}()
	b.SetBytes(int64(msgSize))
	b.ResetTimer()
	if _, err := ttcp.Send(sender, msgSize, total); err != nil {
		b.Fatal(err)
	}
	if err := <-errs; err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFig9_Throughput(b *testing.B) {
	for _, size := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("tcp/%dB", size), func(b *testing.B) { benchThroughputTCP(b, size) })
		b.Run(fmt.Sprintf("naplet/%dB", size), func(b *testing.B) { benchThroughputNaplet(b, size) })
	}
}

// ---- Figure 10: connection migration under load ----

func BenchmarkFig10_ConnectionMigration(b *testing.B) {
	p, err := experiments.NewBenchPair(true)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.MigrateClient(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 12: the Section 5 simulation ----

func BenchmarkFig12_Simulation(b *testing.B) {
	cfg := model.SimConfig{
		Params:       model.PaperParams(),
		MeanServiceA: 500,
		MeanServiceB: 500,
		Migrations:   5000,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		model.Simulate(cfg)
	}
}

// ---- Figure 13: the overhead model ----

func BenchmarkFig13_OverheadModel(b *testing.B) {
	p := model.PaperParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range []float64{1, 2, 5, 10, 20} {
			p.Overhead(float64(1+i%100), r)
		}
	}
}

// ---- substrate micro-benchmarks ----

func BenchmarkSub_ControlChannelRoundTrip(b *testing.B) {
	server, err := rudp.Listen("127.0.0.1:0", func(_ netip.AddrPort, req []byte) []byte { return req }, rudp.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	client, err := rudp.Listen("127.0.0.1:0", nil, rudp.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	payload := make([]byte, 128)
	addr := server.Addr().String()
	ctx := b.Context()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Request(ctx, addr, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSub_FrameEncodeDecode(b *testing.B) {
	payload := make([]byte, 2048)
	buf := make([]byte, 0, 4096)
	w := &sliceWriter{buf: buf}
	b.ReportAllocs()
	b.SetBytes(2048)
	for i := 0; i < b.N; i++ {
		w.buf = w.buf[:0]
		if err := wire.WriteFrame(w, wire.Frame{Seq: uint64(i), Flags: wire.FlagData, Payload: payload}); err != nil {
			b.Fatal(err)
		}
		if _, err := wire.ReadFrame(&sliceReader{buf: w.buf}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSub_ControlMsgCodec(b *testing.B) {
	m := &wire.ControlMsg{
		Type: wire.MsgSuspend, From: "agent-a", To: "agent-b",
		Nonce: 42, DataAddr: "127.0.0.1:9999", ControlAddr: "127.0.0.1:9998",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := m.Encode()
		if _, err := wire.DecodeControlMsg(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// sliceWriter/sliceReader avoid bytes.Buffer allocation churn in codec
// benchmarks.
type sliceWriter struct{ buf []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

type sliceReader struct {
	buf []byte
	off int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.buf) {
		return 0, fmt.Errorf("EOF")
	}
	n := copy(p, r.buf[r.off:])
	r.off += n
	return n, nil
}
