package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// rawRecord hand-encodes one binary record: kind, begin delta,
// duration, flags, then the optional fields already encoded in order.
func rawRecord(kind uint64, dbegin int64, dur, flags uint64, fields ...[]byte) []byte {
	b := binary.AppendUvarint(nil, kind)
	b = binary.AppendVarint(b, dbegin)
	b = binary.AppendUvarint(b, dur)
	b = binary.AppendUvarint(b, flags)
	for _, f := range fields {
		b = append(b, f...)
	}
	return b
}

func sv(v int64) []byte  { return binary.AppendVarint(nil, v) }
func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }

// rawStream is a valid header, the given raw records and the
// terminator.
func rawStream(tb testing.TB, recs ...[]byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, Header{Rank: 0, NRanks: 4})
	if err != nil {
		tb.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		tb.Fatal(err)
	}
	out := buf.Bytes()[:buf.Len()-1] // drop the terminator
	for _, r := range recs {
		out = append(out, r...)
	}
	return append(out, 0)
}

// outOfRangeStreams are binary streams whose last record has a field
// that does not fit the record, each with the error it must produce.
func outOfRangeStreams(tb testing.TB) []struct {
	name, want string
	data       []byte
} {
	send, bcast := uint64(KindSend), uint64(KindBcast)
	maxBegin := rawRecord(uint64(KindInit), math.MaxInt64, 0, 0)
	minBegin := rawRecord(uint64(KindInit), math.MinInt64, 0, 0)
	return []struct {
		name, want string
		data       []byte
	}{
		{"kind", "trace: invalid kind 257", rawStream(tb, rawRecord(257, 0, 0, 0))},
		{"peer", "trace: peer 4294967297 out of int32 range",
			rawStream(tb, rawRecord(send, 0, 0, flagPeer, sv(1<<32+1)))},
		{"tag", "trace: tag -2147483649 out of int32 range",
			rawStream(tb, rawRecord(send, 0, 0, flagPeer|flagTag, sv(1), sv(math.MinInt32-1)))},
		{"bytes", "trace: bytes 9223372036854775808 out of int64 range",
			rawStream(tb, rawRecord(send, 0, 0, flagPeer|flagBytes, sv(1), uv(1<<63)))},
		{"comm", "trace: comm 2147483648 out of int32 range",
			rawStream(tb, rawRecord(bcast, 0, 0, flagComm, sv(math.MaxInt32+1)))},
		{"seq", "trace: seq 18446744073709551615 out of int64 range",
			rawStream(tb, rawRecord(bcast, 0, 0, flagSeq, uv(math.MaxUint64)))},
		{"root", "trace: root -4294967296 out of int32 range",
			rawStream(tb, rawRecord(bcast, 0, 0, flagSeq|flagRoot, uv(1), sv(-1<<32)))},
		{"size", "trace: size 2147483648 out of int32 range",
			rawStream(tb, rawRecord(bcast, 0, 0, flagSeq|flagRoot|flagCommSize, uv(1), sv(0), uv(math.MaxInt32+1)))},
		{"begin-up", "trace: begin delta 1 overflows previous begin 9223372036854775807",
			rawStream(tb, maxBegin, rawRecord(uint64(KindFinalize), 1, 0, 0))},
		{"begin-down", "trace: begin delta -1 overflows previous begin -9223372036854775808",
			rawStream(tb, minBegin, rawRecord(uint64(KindFinalize), -1, 0, 0))},
		{"duration", "trace: duration 2 overflows begin 9223372036854775806",
			rawStream(tb, rawRecord(uint64(KindInit), math.MaxInt64-1, 2, 0))},
	}
}

// TestDecoderRejectsOutOfRange checks that the binary decoder refuses
// every field that would otherwise be truncated or wrap when stored.
func TestDecoderRejectsOutOfRange(t *testing.T) {
	for _, c := range outOfRangeStreams(t) {
		t.Run(c.name, func(t *testing.T) {
			dec, err := NewDecoder(bytes.NewReader(c.data))
			if err != nil {
				t.Fatal(err)
			}
			var last error
			for n := 0; n < 3; n++ {
				if _, last = dec.Decode(); last != nil {
					break
				}
			}
			if last == nil || last.Error() != c.want {
				t.Fatalf("err = %v, want %s", last, c.want)
			}
		})
	}
}

// TestDecoderAcceptsRangeEdges decodes the extreme values that do fit.
func TestDecoderAcceptsRangeEdges(t *testing.T) {
	data := rawStream(t,
		rawRecord(uint64(KindSend), math.MinInt64, math.MaxInt64, flagPeer|flagTag|flagBytes,
			sv(math.MaxInt32), sv(math.MinInt32), uv(math.MaxInt64)),
		rawRecord(uint64(KindBcast), math.MaxInt64, 0, flagComm|flagSeq|flagRoot|flagCommSize,
			sv(math.MinInt32), uv(math.MaxInt64), sv(math.MaxInt32), uv(math.MaxInt32)))
	dec, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadAll(decoderReader{dec})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Kind: KindSend, Begin: math.MinInt64, End: -1, Peer: math.MaxInt32, Tag: math.MinInt32,
			Bytes: math.MaxInt64, Root: NoRank},
		{Kind: KindBcast, Begin: -1, End: -1, Peer: NoRank, Comm: math.MinInt32, Seq: math.MaxInt64,
			Root: math.MaxInt32, CommSize: math.MaxInt32},
	}
	if !reflect.DeepEqual(m.Records, want) {
		t.Fatalf("records\n%+v\nwant\n%+v", m.Records, want)
	}
}

// TestDecoderTruncatedAnywhere cuts a stream at every byte after the
// header: the decoder must report truncation, never a clean end.
func TestDecoderTruncatedAnywhere(t *testing.T) {
	hdrLen := len(rawStream(t)) - 1
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, Header{Rank: 0, NRanks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := hdrLen; cut < len(full); cut++ {
		dec, err := NewDecoder(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: header: %v", cut, err)
		}
		for {
			_, err := dec.Decode()
			if err == nil {
				continue
			}
			if errors.Is(err, io.EOF) || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut %d of %d: err = %v, want a truncation error", cut, len(full), err)
			}
			break
		}
	}
}

// TestTextRejectsOutOfRange is the text codec's counterpart: fields
// stored as int32 must fit, and a request id must not be negative.
func TestTextRejectsOutOfRange(t *testing.T) {
	const hdr = "# mpgt-text 1\nheader rank=0 nranks=4\n"
	cases := []struct{ line, want string }{
		{"send begin=0 end=1 peer=4294967297 bytes=8", "trace: line 3: peer=4294967297 out of int32 range"},
		{"send begin=0 end=1 peer=1 tag=-2147483649", "trace: line 3: tag=-2147483649 out of int32 range"},
		{"bcast begin=0 end=1 comm=2147483648 seq=1 root=0 size=2", "trace: line 3: comm=2147483648 out of int32 range"},
		{"bcast begin=0 end=1 seq=1 root=4294967296 size=2", "trace: line 3: root=4294967296 out of int32 range"},
		{"barrier begin=0 end=1 seq=1 size=4294967298", "trace: line 3: size=4294967298 out of int32 range"},
		{"wait begin=0 end=1 req=-1", `trace: line 3: req="-1" is not an unsigned integer`},
	}
	for _, c := range cases {
		_, _, err := ReadText(strings.NewReader(hdr + c.line + "\n"))
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %s", c.line, err, c.want)
		}
	}
	// The extremes themselves are accepted, and a request id above
	// MaxInt64, which the binary codec carries, round-trips.
	in := hdr + "isend begin=0 end=1 peer=2147483647 tag=-2147483648 bytes=9223372036854775807 req=18446744073709551615\n"
	h, recs, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := Record{Kind: KindIsend, Begin: 0, End: 1, Peer: math.MaxInt32, Tag: math.MinInt32,
		Bytes: math.MaxInt64, Req: math.MaxUint64, Root: NoRank}
	if len(recs) != 1 || recs[0] != want {
		t.Fatalf("records %+v, want %+v", recs, want)
	}
	var out strings.Builder
	if err := WriteText(&out, h, recs); err != nil {
		t.Fatal(err)
	}
	if out.String() != in {
		t.Fatalf("round trip\n%s\nwant\n%s", out.String(), in)
	}
}
