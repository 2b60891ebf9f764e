package naming

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

var codecLoc = Location{
	Host:        "h1",
	ControlAddr: "127.0.0.1:7400",
	DataAddr:    "127.0.0.1:7401",
	DockAddr:    "127.0.0.1:7402",
	MailAddr:    "127.0.0.1:7403",
}

func requestCases() map[string]rpcRequest {
	return map[string]rpcRequest{
		"zero":     {},
		"register": {Op: opRegister, AgentID: "walker", Loc: codecLoc},
		"update":   {Op: opUpdate, AgentID: "walker", Loc: codecLoc, Epoch: 1<<63 + 5},
		"waitfor":  {Op: opWaitFor, AgentID: "w", TimeoutMs: -1},
		"unicode":  {Op: opLookup, AgentID: "agent-ü-\x00-end"},
	}
}

func responseCases() map[string]rpcResponse {
	when := time.Date(2004, 8, 15, 10, 30, 0, 123456789, time.UTC)
	return map[string]rpcResponse{
		"zero": {},
		"err":  {Code: codeStale, Err: "naming: stale location update: have epoch 3, update carries 2"},
		"record": {Record: Record{
			AgentID: "walker", Loc: codecLoc, Epoch: 7, UpdatedAt: when,
		}},
		"zero-time-record": {Record: Record{AgentID: "walker", Epoch: 1}},
		"trace": {Trace: []Move{
			{When: when, Loc: codecLoc, Epoch: 1},
			{Loc: Location{Host: "h2"}, Epoch: 2},
			{When: when.Add(time.Nanosecond), Epoch: 3},
		}},
		"empty-trace": {Trace: []Move{}},
		"pre-1970":    {Record: Record{UpdatedAt: time.Unix(-5, -7)}},
	}
}

// normResponse maps r onto the form decoding yields: an empty trace is nil
// and times carry no monotonic reading or zone.
func normResponse(r rpcResponse) rpcResponse {
	norm := func(t time.Time) time.Time {
		if t.IsZero() {
			return time.Time{}
		}
		return time.Unix(0, t.UnixNano())
	}
	r.Record.UpdatedAt = norm(r.Record.UpdatedAt)
	if len(r.Trace) == 0 {
		r.Trace = nil
	} else {
		r.Trace = append([]Move(nil), r.Trace...)
		for i := range r.Trace {
			r.Trace[i].When = norm(r.Trace[i].When)
		}
	}
	return r
}

func TestRequestRoundTrip(t *testing.T) {
	for name, in := range requestCases() {
		t.Run(name, func(t *testing.T) {
			got, err := decodeRequest(in.encode())
			if err != nil {
				t.Fatal(err)
			}
			if got != in {
				t.Fatalf("round trip: got %+v, want %+v", got, in)
			}
		})
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for name, in := range responseCases() {
		t.Run(name, func(t *testing.T) {
			got, err := decodeResponse(in.encode())
			if err != nil {
				t.Fatal(err)
			}
			if want := normResponse(in); !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip: got %+v, want %+v", got, want)
			}
			if in.Record.UpdatedAt.IsZero() != got.Record.UpdatedAt.IsZero() ||
				(!in.Record.UpdatedAt.IsZero() && in.Record.UpdatedAt.UnixNano() != got.Record.UpdatedAt.UnixNano()) {
				t.Fatalf("UpdatedAt %v came back as %v", in.Record.UpdatedAt, got.Record.UpdatedAt)
			}
		})
	}
}

func TestRPCDecodersRejectEveryTruncation(t *testing.T) {
	for name, in := range requestCases() {
		b := in.encode()
		for i := 0; i < len(b); i++ {
			if _, err := decodeRequest(b[:i]); err == nil {
				t.Errorf("request %s: %d of %d bytes decoded without error", name, i, len(b))
			}
		}
	}
	for name, in := range responseCases() {
		b := in.encode()
		for i := 0; i < len(b); i++ {
			if _, err := decodeResponse(b[:i]); err == nil {
				t.Errorf("response %s: %d of %d bytes decoded without error", name, i, len(b))
			}
		}
	}
}

func TestRPCDecodersRejectTrailingBytesAndBadVersion(t *testing.T) {
	req := requestCases()["update"].encode()
	if _, err := decodeRequest(append(req, 0)); err == nil {
		t.Error("request with a trailing byte decoded")
	}
	req[0] = rpcVersion + 1
	if _, err := decodeRequest(req); err == nil {
		t.Error("request with a foreign version decoded")
	}
	resp := responseCases()["trace"].encode()
	if _, err := decodeResponse(append(resp, 0)); err == nil {
		t.Error("response with a trailing byte decoded")
	}
}

// TestResponseTraceCountCheckedBeforeAllocation claims a million moves in
// a response that carries none: the decoder must fail without sizing a
// slice from the claim.
func TestResponseTraceCountCheckedBeforeAllocation(t *testing.T) {
	b := rpcResponse{}.encode()
	binary.BigEndian.PutUint32(b[len(b)-4:], 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeResponse(b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("response claiming 1M moves decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("decoder allocated %d bytes before rejecting the count", grew)
	}
}

// TestRemoteErrorsMatchSentinels checks errors.Is for every sentinel
// across a real Server/Client pair, and that the match rides on the
// response code rather than the message text.
func TestRemoteErrorsMatchSentinels(t *testing.T) {
	srv, err := NewServer(NewService(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := NewClient(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	if _, err := cli.Lookup(ctx, "nobody"); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup of unknown agent: %v, want ErrNotFound", err)
	}
	if err := cli.Register(ctx, "a", codecLoc); err != nil {
		t.Fatal(err)
	}
	if err := cli.Register(ctx, "a", codecLoc); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate register: %v, want ErrExists", err)
	}
	if err := cli.Update(ctx, "a", codecLoc, 0); !errors.Is(err, ErrStale) {
		t.Errorf("stale update: %v, want ErrStale", err)
	}
	if _, err := cli.call(ctx, rpcRequest{Op: 99}); err == nil ||
		errors.Is(err, ErrNotFound) || errors.Is(err, ErrStale) || errors.Is(err, ErrExists) {
		t.Errorf("unknown op: %v, want a plain remote error", err)
	}

	for code, want := range map[errCode]error{codeNotFound: ErrNotFound, codeStale: ErrStale, codeExists: ErrExists} {
		if err := remoteError(code, "no sentinel text here"); !errors.Is(err, want) {
			t.Errorf("code %d: %v does not match %v", code, err, want)
		}
	}
	if err := remoteError(codeOther, ErrNotFound.Error()); errors.Is(err, ErrNotFound) {
		t.Errorf("codeOther matched ErrNotFound by its message: %v", err)
	}
}

func FuzzDecodeRequest(f *testing.F) {
	for _, in := range requestCases() {
		f.Add(in.encode())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeRequest(b)
		if err != nil {
			return
		}
		if again := r.encode(); !bytes.Equal(again, b) {
			t.Fatalf("decoded %+v re-encodes to %x, not %x", r, again, b)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	for _, in := range responseCases() {
		f.Add(in.encode())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeResponse(b)
		if err != nil {
			return
		}
		if again := r.encode(); !bytes.Equal(again, b) {
			t.Fatalf("decoded %+v re-encodes to %x, not %x", r, again, b)
		}
	})
}
