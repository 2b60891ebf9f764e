package wire

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestDecoderReadsWhatAppendWrote(t *testing.T) {
	when := time.Unix(1092565800, 123456789)
	var b []byte
	b = AppendString(b, "agent")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendBytes(b, nil)
	b = AppendBool(b, true)
	b = AppendTime(b, when)
	b = AppendTime(b, time.Time{})
	b = AppendCount(b, 2)
	b = append(b, 0xaa, 0xbb)

	d := NewDecoder(b)
	if s := d.Str(); s != "agent" {
		t.Errorf("Str = %q", s)
	}
	if p := d.Bytes(); string(p) != "\x01\x02\x03" {
		t.Errorf("Bytes = %x", p)
	}
	if p := d.Bytes(); p != nil {
		t.Errorf("empty Bytes = %#v, want nil", p)
	}
	if !d.Bool() {
		t.Error("Bool = false")
	}
	if got := d.Time(); got.UnixNano() != when.UnixNano() {
		t.Errorf("Time = %v, want %v", got, when)
	}
	if got := d.Time(); !got.IsZero() {
		t.Errorf("zero Time came back as %v", got)
	}
	if n := d.Count(1); n != 2 {
		t.Errorf("Count = %d", n)
	}
	var fixed [2]byte
	d.Fixed(fixed[:])
	if fixed != [2]byte{0xaa, 0xbb} {
		t.Errorf("Fixed = %x", fixed)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderRejectsMalformedInput(t *testing.T) {
	cases := map[string]struct {
		b    []byte
		read func(d *Decoder)
	}{
		"bool byte 2":     {[]byte{2}, func(d *Decoder) { d.Bool() }},
		"time flag 2":     {[]byte{2, 0, 0, 0, 0, 0, 0, 0, 0}, func(d *Decoder) { d.Time() }},
		"short time":      {[]byte{1, 0, 0}, func(d *Decoder) { d.Time() }},
		"short string":    {[]byte{0, 5, 'a'}, func(d *Decoder) { d.Str() }},
		"short bytes":     {[]byte{0, 0, 0, 9, 1}, func(d *Decoder) { d.Bytes() }},
		"count too large": {[]byte{0, 0, 0, 3, 1, 2, 3, 4, 5}, func(d *Decoder) { d.Count(2) }},
		"trailing byte":   {[]byte{1, 0}, func(d *Decoder) { d.Bool() }},
	}
	for name, c := range cases {
		d := NewDecoder(c.b)
		c.read(&d)
		if err := d.Finish(); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	d := NewDecoder(nil)
	d.Uint64()
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Errorf("empty input: %v, want ErrTruncated", d.Err())
	}
}

func TestAppendStringClampsToPrefix(t *testing.T) {
	long := strings.Repeat("x", 70000)
	d := NewDecoder(AppendString(nil, long))
	if s := d.Str(); len(s) != 0xffff {
		t.Fatalf("decoded %d bytes, want 65535", len(s))
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}
