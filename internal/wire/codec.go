package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// This file holds the length-prefixed binary encoding shared by every
// hand-written codec of the system: the control messages and handoff
// headers here, the location-service RPCs, and the connection hand-over
// state. Strings carry a 2-byte length, byte slices and element counts a
// 4-byte one, integers are big-endian and fixed-width.
//
// Decoders read untrusted input (UDP from anyone, records from disk), so
// every length and count is checked against the bytes that remain before
// anything is allocated, and malformed input yields an error, never a
// panic.

// ErrTruncated reports input that ends before the fields it announces.
var ErrTruncated = errors.New("wire: truncated input")

// AppendString appends a length-prefixed string. Strings longer than the
// 2-byte prefix can express are cut at 65535 bytes, so the encoding stays
// self-consistent.
func AppendString(b []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// AppendBytes appends a length-prefixed byte slice. Nil and empty slices
// share one encoding.
func AppendBytes(b []byte, p []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

// AppendBool appends one byte, 1 for true.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendTime appends t exactly to the nanosecond: a presence byte, then
// (for a non-zero time) its UnixNano. The zero time round-trips as zero.
func AppendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1)
	return binary.BigEndian.AppendUint64(b, uint64(t.UnixNano()))
}

// takeString consumes a length-prefixed string.
func takeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, ErrTruncated
	}
	return string(b[:n]), b[n:], nil
}

// takeBytes consumes a length-prefixed byte slice, copying it out of b. A
// zero length yields nil.
func takeBytes(b []byte) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, ErrTruncated
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint64(len(b)) < uint64(n) {
		return nil, nil, ErrTruncated
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out, b[n:], nil
}

// Decoder consumes an encoding built with the Append helpers. The first
// failure sticks: later reads return zero values and Err reports it, so a
// decoder reads a whole struct and checks once.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a decoder over b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Err returns the first failure, if any.
func (d *Decoder) Err() error { return d.err }

// Finish returns the first failure, or an error if input remains unread.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("wire: %d trailing bytes", len(d.b))
	}
	return d.err
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// next consumes n bytes, or fails and returns nil.
func (d *Decoder) next(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.fail(ErrTruncated)
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

// Uint8 consumes one byte.
func (d *Decoder) Uint8() uint8 {
	if p := d.next(1); p != nil {
		return p[0]
	}
	return 0
}

// Uint64 consumes a big-endian uint64.
func (d *Decoder) Uint64() uint64 {
	if p := d.next(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// Bool consumes a byte written by AppendBool; any value but 0 or 1 fails.
func (d *Decoder) Bool() bool {
	switch v := d.Uint8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("wire: bad bool byte %d", v))
		return false
	}
}

// Str consumes a length-prefixed string.
func (d *Decoder) Str() string {
	if d.err != nil {
		return ""
	}
	s, rest, err := takeString(d.b)
	if err != nil {
		d.fail(err)
		return ""
	}
	d.b = rest
	return s
}

// Bytes consumes a length-prefixed byte slice (a copy; nil when empty).
func (d *Decoder) Bytes() []byte {
	if d.err != nil {
		return nil
	}
	p, rest, err := takeBytes(d.b)
	if err != nil {
		d.fail(err)
		return nil
	}
	d.b = rest
	return p
}

// Fixed fills dst with the next len(dst) bytes.
func (d *Decoder) Fixed(dst []byte) {
	if p := d.next(len(dst)); p != nil {
		copy(dst, p)
	}
}

// Time consumes a time written by AppendTime.
func (d *Decoder) Time() time.Time {
	switch v := d.Uint8(); v {
	case 0:
		return time.Time{}
	case 1:
		if p := d.next(8); p != nil {
			return time.Unix(0, int64(binary.BigEndian.Uint64(p)))
		}
	default:
		d.fail(fmt.Errorf("wire: bad time flag %d", v))
	}
	return time.Time{}
}

// Count consumes a 4-byte element count for a sequence whose elements
// encode to at least minSize bytes each, and fails unless that many
// elements could fit in the remaining input — so a hostile count can never
// size an allocation. minSize must be at least 1.
func (d *Decoder) Count(minSize int) int {
	p := d.next(4)
	if p == nil {
		return 0
	}
	n := uint64(binary.BigEndian.Uint32(p))
	if n*uint64(minSize) > uint64(len(d.b)) {
		d.fail(fmt.Errorf("wire: count %d exceeds the %d bytes left: %w", n, len(d.b), ErrTruncated))
		return 0
	}
	return int(n)
}

// AppendCount appends a 4-byte element count, read back by Count.
func AppendCount(b []byte, n int) []byte {
	return binary.BigEndian.AppendUint32(b, uint32(n))
}
