package naming

import (
	"encoding/binary"
	"errors"
	"fmt"

	"naplet/internal/wire"
)

// This file is the binary wire format of the location-service RPCs, built
// on the length-prefixed helpers of package wire. A request is
//
//	version(1) op(1) agentID(str) loc epoch(8) timeoutMs(8)
//
// and a response is
//
//	version(1) code(1) err(str) record trace-count(4) move...
//
// where loc is five strings (host, control, data, dock, mail), a record is
// agentID(str) loc epoch(8) updatedAt(time), and a move is when(time) loc
// epoch(8). The server accepts UDP from anyone, so decoding rejects any
// malformed or trailing input.

// rpcVersion leads every request and response.
const rpcVersion = 1

// errCode carries the sentinel behind a response's error, so errors.Is
// holds across the wire without parsing the human-readable message.
type errCode uint8

const (
	codeOK errCode = iota
	codeNotFound
	codeStale
	codeExists
	// codeOther is any other failure; only the message describes it.
	codeOther
)

// codeOf maps a service error onto its wire code.
func codeOf(err error) errCode {
	switch {
	case err == nil:
		return codeOK
	case errors.Is(err, ErrNotFound):
		return codeNotFound
	case errors.Is(err, ErrStale):
		return codeStale
	case errors.Is(err, ErrExists):
		return codeExists
	default:
		return codeOther
	}
}

// minLocationSize is the encoded size of an all-empty Location, and
// minMoveSize that of a Move holding one; they bound trace counts.
const (
	minLocationSize = 5 * 2
	minMoveSize     = 1 + minLocationSize + 8
)

func appendLocation(b []byte, l Location) []byte {
	b = wire.AppendString(b, l.Host)
	b = wire.AppendString(b, l.ControlAddr)
	b = wire.AppendString(b, l.DataAddr)
	b = wire.AppendString(b, l.DockAddr)
	return wire.AppendString(b, l.MailAddr)
}

func takeLocation(d *wire.Decoder) Location {
	return Location{
		Host:        d.Str(),
		ControlAddr: d.Str(),
		DataAddr:    d.Str(),
		DockAddr:    d.Str(),
		MailAddr:    d.Str(),
	}
}

func (r rpcRequest) encode() []byte {
	b := make([]byte, 0, 64+len(r.AgentID))
	b = append(b, rpcVersion, byte(r.Op))
	b = wire.AppendString(b, r.AgentID)
	b = appendLocation(b, r.Loc)
	b = binary.BigEndian.AppendUint64(b, r.Epoch)
	return binary.BigEndian.AppendUint64(b, uint64(r.TimeoutMs))
}

func decodeRequest(b []byte) (rpcRequest, error) {
	d := wire.NewDecoder(b)
	if v := d.Uint8(); d.Err() == nil && v != rpcVersion {
		return rpcRequest{}, fmt.Errorf("naming: request version %d", v)
	}
	r := rpcRequest{
		Op:        rpcOp(d.Uint8()),
		AgentID:   d.Str(),
		Loc:       takeLocation(&d),
		Epoch:     d.Uint64(),
		TimeoutMs: int64(d.Uint64()),
	}
	if err := d.Finish(); err != nil {
		return rpcRequest{}, fmt.Errorf("naming: decoding request: %w", err)
	}
	return r, nil
}

func (r rpcResponse) encode() []byte {
	b := make([]byte, 0, 96+len(r.Err)+len(r.Trace)*64)
	b = append(b, rpcVersion, byte(r.Code))
	b = wire.AppendString(b, r.Err)
	b = wire.AppendString(b, r.Record.AgentID)
	b = appendLocation(b, r.Record.Loc)
	b = binary.BigEndian.AppendUint64(b, r.Record.Epoch)
	b = wire.AppendTime(b, r.Record.UpdatedAt)
	b = wire.AppendCount(b, len(r.Trace))
	for _, m := range r.Trace {
		b = wire.AppendTime(b, m.When)
		b = appendLocation(b, m.Loc)
		b = binary.BigEndian.AppendUint64(b, m.Epoch)
	}
	return b
}

func decodeResponse(b []byte) (rpcResponse, error) {
	d := wire.NewDecoder(b)
	if v := d.Uint8(); d.Err() == nil && v != rpcVersion {
		return rpcResponse{}, fmt.Errorf("naming: response version %d", v)
	}
	r := rpcResponse{Code: errCode(d.Uint8()), Err: d.Str()}
	r.Record = Record{
		AgentID: d.Str(),
		Loc:     takeLocation(&d),
		Epoch:   d.Uint64(),
	}
	r.Record.UpdatedAt = d.Time()
	if n := d.Count(minMoveSize); n > 0 {
		r.Trace = make([]Move, n)
		for i := range r.Trace {
			r.Trace[i] = Move{When: d.Time(), Loc: takeLocation(&d), Epoch: d.Uint64()}
		}
	}
	if err := d.Finish(); err != nil {
		return rpcResponse{}, fmt.Errorf("naming: decoding response: %w", err)
	}
	return r, nil
}
