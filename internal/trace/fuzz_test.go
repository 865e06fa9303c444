package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// edgeRecords are boundary-condition fixtures for the seed corpora:
// collectives at the maximum sequence number, zero-byte messages, and
// extreme-but-legal timestamps.
func edgeRecords() []Record {
	return []Record{
		{Kind: KindInit, Begin: 0, End: 0, Peer: NoRank, Root: NoRank},
		{Kind: KindSend, Begin: 1, End: 2, Peer: 1, Tag: 0, Bytes: 0, Root: NoRank},
		{Kind: KindRecv, Begin: 2, End: 3, Peer: 1, Tag: 0, Bytes: 0, Root: NoRank},
		{Kind: KindAllreduce, Begin: 4, End: 5, Peer: NoRank, Seq: math.MaxInt64,
			Bytes: 0, Root: NoRank, CommSize: 2},
		{Kind: KindBcast, Begin: 6, End: 7, Peer: NoRank, Seq: math.MaxInt64,
			Bytes: 1, Root: 0, Comm: math.MaxInt32, CommSize: 2},
		{Kind: KindFinalize, Begin: math.MaxInt64, End: math.MaxInt64,
			Peer: NoRank, Root: NoRank},
	}
}

// malformedSeeds are text traces modeled on the hand-built fixtures
// the structural linter (internal/verify) checks: the codec rejects
// the per-rank defects (non-monotone clock, end before begin) at parse
// time; the cross-rank ones (unmatched send, dangling wait) are valid
// text that only the set-level linter can flag, and must round-trip.
func malformedSeeds() []string {
	return []string{
		// Overlapping events on one rank: rejected at parse time.
		"# mpgt-text 1\nheader rank=0 nranks=2\nsend begin=100 end=200 peer=1 bytes=8\nsend begin=150 end=250 peer=1 bytes=8\n",
		// Equal boundary: begin == previous end is legal.
		"# mpgt-text 1\nheader rank=0 nranks=2\nsend begin=100 end=200 peer=1 bytes=8\nsend begin=200 end=250 peer=1 bytes=8\n",
		// Unmatched send and dangling wait: parse fine, lint dirty.
		"# mpgt-text 1\nheader rank=0 nranks=2\nsend begin=0 end=10 peer=1 bytes=4\n",
		"# mpgt-text 1\nheader rank=0 nranks=1\nwait begin=0 end=10 req=7\n",
		// Backwards clock within one record.
		"# mpgt-text 1\nheader rank=0 nranks=1\ninit begin=10 end=5\n",
	}
}

// encodeAll renders records through the binary codec.
func encodeAll(f *testing.F, hdr Header, recs []Record) []byte {
	f.Helper()
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, hdr)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecoder feeds arbitrary bytes to the binary decoder: it must
// return errors on garbage, never panic or loop. Run with
// `go test -fuzz=FuzzDecoder ./internal/trace` for a real campaign;
// the seed corpus below runs on every `go test`.
func FuzzDecoder(f *testing.F) {
	// Seeds: a valid stream, a truncated stream, pure garbage.
	var valid bytes.Buffer
	enc, err := NewEncoder(&valid, Header{Rank: 1, NRanks: 4,
		Meta: map[string]string{"k": "v"}})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := enc.Encode(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte("MPGT"))
	f.Add([]byte("garbage that is not a trace at all"))
	f.Add([]byte{})
	// Boundary seeds: max-seq collectives and zero-byte messages, whole
	// and with the final record truncated mid-stream.
	edge := encodeAll(f, Header{Rank: 0, NRanks: 2}, edgeRecords())
	f.Add(edge)
	f.Add(edge[:len(edge)-1])
	f.Add(edge[:len(edge)-3])
	// Fields that do not fit their record: each must be an error.
	for _, c := range outOfRangeStreams(f) {
		f.Add(c.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			return // rejected at the header: fine
		}
		// Drain with a generous cap (malformed varints could otherwise
		// describe absurd record counts; each Decode must make progress
		// or error).
		for i := 0; i < 1_000_000; i++ {
			_, err := dec.Decode()
			if errors.Is(err, io.EOF) || err != nil {
				return
			}
		}
		t.Fatal("decoder failed to terminate on fuzzed input")
	})
}

// FuzzTextReader does the same for the text codec.
func FuzzTextReader(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteText(&valid, Header{Rank: 0, NRanks: 2}, sampleRecords()); err != nil {
		f.Fatal(err)
	}
	var edge bytes.Buffer
	if err := WriteText(&edge, Header{Rank: 1, NRanks: 2}, edgeRecords()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.String())
	f.Add(edge.String())
	f.Add(edge.String()[:edge.Len()-4]) // truncated final record
	f.Add("# mpgt-text 1\nheader rank=0 nranks=1\n")
	// A line past the old 1 MiB scanner cap: the reader must parse it,
	// not error with bufio.ErrTooLong (see TestTextLongLine).
	f.Add("# mpgt-text 1\nheader rank=0 nranks=1\nmeta blob=" +
		strings.Repeat("y", (1<<20)+512) + "\n")
	f.Add("nonsense")
	f.Add("")
	for _, s := range malformedSeeds() {
		f.Add(s)
	}
	// Out-of-range fields, rejected at parse time.
	f.Add("# mpgt-text 1\nheader rank=0 nranks=2\nsend begin=0 end=1 peer=4294967297 bytes=8\n")
	f.Add("# mpgt-text 1\nheader rank=0 nranks=1\nwait begin=0 end=1 req=-1\n")
	f.Fuzz(func(t *testing.T, s string) {
		_, _, _ = ReadText(bytes.NewReader([]byte(s)))
	})
}

// FuzzTextRoundTrip checks the codec identity decode(encode(x)) == x:
// any input the text reader accepts must re-encode to a form that
// parses back to the same header and records.
func FuzzTextRoundTrip(f *testing.F) {
	for _, recs := range [][]Record{sampleRecords(), edgeRecords()} {
		var buf bytes.Buffer
		if err := WriteText(&buf, Header{Rank: 0, NRanks: 2,
			Meta: map[string]string{"workload": "tokenring"}}, recs); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add("# mpgt-text 1\nheader rank=0 nranks=1\nmeta a=b=c\n")
	for _, s := range malformedSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		hdr, recs, err := ReadText(bytes.NewReader([]byte(s)))
		if err != nil {
			return // rejected input: fine
		}
		// Anything the reader accepts is a monotone serial history, so
		// the writer (which enforces the same invariant) must take it.
		var out bytes.Buffer
		if err := WriteText(&out, hdr, recs); err != nil {
			// The reader is more permissive than the writer in exactly
			// one place: metadata keys with spaces/'=' parse but are not
			// representable. Anything else must re-encode.
			for k := range hdr.Meta {
				if len(k) == 0 || bytes.ContainsAny([]byte(k), " =") {
					return
				}
			}
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		hdr2, recs2, err := ReadText(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace failed to parse: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(hdr, hdr2) {
			t.Fatalf("header round-trip mismatch:\n%+v\n%+v", hdr, hdr2)
		}
		if !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("records round-trip mismatch:\n%+v\n%+v", recs, recs2)
		}
	})
}
