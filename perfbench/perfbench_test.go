package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the result must match.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// lastResult runs the benchmark and decodes the last line of its output.
func lastResult(t *testing.T, o options) (int, result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := execute(o, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	// A run that fails before measuring prints no result; res stays zero.
	_ = json.Unmarshal([]byte(lines[len(lines)-1]), &res)
	return code, res, out.String() + errOut.String()
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each metric BENCHMARK.json names is printed with its unit.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	for _, wl := range []string{"bulk", "rpc", "roam"} {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			o := options{workload: wl, seed: 7, seconds: 1, trace: trace, spansPath: filepath.Join(t.TempDir(), "spans.csv.gz")}
			code, res, log := lastResult(t, o)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, result %+v\n%s", wl, trace, code, res, log)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s", wl, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestCorruptedPayloadFails flips one byte of one message and expects the
// run to report it and exit nonzero.
func TestCorruptedPayloadFails(t *testing.T) {
	for _, wl := range []string{"bulk", "rpc", "roam"} {
		code, res, log := lastResult(t, options{workload: wl, seed: 7, seconds: 1, corruptAt: 3})
		if code == 0 || res.Correct {
			t.Errorf("%s with a corrupted payload: exit %d, correct %v\n%s", wl, code, res.Correct, log)
		}
		if !strings.Contains(log, "violation:") {
			t.Errorf("%s with a corrupted payload printed no violation:\n%s", wl, log)
		}
	}
}

func TestAnalyzeRejectsChildOutsideParent(t *testing.T) {
	spans := []span{
		{kind: spanHop, id: 1, start: 100, end: 200},
		{kind: spanDepart, id: 2, parent: 1, start: 150, end: 250},
	}
	if _, err := analyze(spans); err == nil {
		t.Fatal("a child ending after its parent passed the sanity check")
	}
	spans[1].end = 180
	st, err := analyze(spans)
	if err != nil {
		t.Fatal(err)
	}
	if st.self[spanHop] != 70 || st.self[spanDepart] != 30 {
		t.Fatalf("self times %d, %d; want 70, 30", st.self[spanHop], st.self[spanDepart])
	}
}

// TestPeerMsgStopFlag checks that a stopping roamer's message reads as a
// stop even where the key's top byte, which the flag replaces, is 1.
func TestPeerMsgStopFlag(t *testing.T) {
	checked := 0
	for seq := uint64(0); checked < 3; seq++ {
		if key(7, peerStream(0), seq)>>56 != 1 {
			continue
		}
		checked++
		if peerMsg(7, 0, seq, false)[msgHeader-1] != 0 || peerMsg(7, 0, seq, true)[msgHeader-1] != 1 {
			t.Fatalf("message %d: go-on flag not carried in the last header byte", seq)
		}
	}
}
