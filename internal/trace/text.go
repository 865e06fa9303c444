package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Text codec: a line-oriented, human-readable trace representation for
// debugging, diffing, and hand-authoring test fixtures. The format
// round-trips exactly with the binary codec:
//
//	# mpgt-text 1
//	header rank=2 nranks=8 clockhz=2000000000
//	meta workload=tokenring
//	meta seed=42
//	send begin=200 end=350 peer=3 tag=42 bytes=8192
//	allreduce begin=1000 end=1200 bytes=8 comm=0 seq=2 size=8
//	...
//
// Fields with their zero/absent value are omitted on output and
// default on input; peer/root use world ranks.

const textMagic = "# mpgt-text 1"

// WriteText renders a header and records in the text format.
func WriteText(w io.Writer, h Header, recs []Record) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, textMagic)
	fmt.Fprintf(bw, "header rank=%d nranks=%d", h.Rank, h.NRanks)
	if h.ClockHz != 0 {
		fmt.Fprintf(bw, " clockhz=%d", h.ClockHz)
	}
	fmt.Fprintln(bw)
	keys := make([]string, 0, len(h.Meta))
	for k := range h.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if strings.ContainsAny(k, " =\n") || strings.Contains(h.Meta[k], "\n") {
			return fmt.Errorf("trace: metadata key/value %q not representable in text format", k)
		}
		fmt.Fprintf(bw, "meta %s=%s\n", k, h.Meta[k])
	}
	var prevEnd int64
	for i, r := range recs {
		if err := r.Validate(); err != nil {
			return err
		}
		if i > 0 && r.Begin < prevEnd {
			return fmt.Errorf("trace: record %d: non-monotone timestamp: %s begin=%d before previous end=%d",
				i, r.Kind, r.Begin, prevEnd)
		}
		prevEnd = r.End
		fmt.Fprint(bw, r.Kind.String())
		fmt.Fprintf(bw, " begin=%d end=%d", r.Begin, r.End)
		if r.Peer != NoRank {
			fmt.Fprintf(bw, " peer=%d", r.Peer)
		}
		if r.Tag != 0 {
			fmt.Fprintf(bw, " tag=%d", r.Tag)
		}
		if r.Bytes != 0 {
			fmt.Fprintf(bw, " bytes=%d", r.Bytes)
		}
		if r.Req != 0 {
			fmt.Fprintf(bw, " req=%d", r.Req)
		}
		if r.Comm != 0 {
			fmt.Fprintf(bw, " comm=%d", r.Comm)
		}
		if r.Seq != 0 {
			fmt.Fprintf(bw, " seq=%d", r.Seq)
		}
		if r.Root != NoRank {
			fmt.Fprintf(bw, " root=%d", r.Root)
		}
		if r.CommSize != 0 {
			fmt.Fprintf(bw, " size=%d", r.CommSize)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// kindByName maps text names back to kinds.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, int(kindCount))
	for k := Kind(1); k < kindCount; k++ {
		m[k.String()] = k
	}
	return m
}()

// maxTextLine bounds a single line of the text format. Record lines
// are tiny, but meta values are free-form and tool-generated traces
// embed provenance blobs (command lines, config dumps) that have
// tripped lower caps; 64 MiB keeps the reader permissive while still
// refusing pathological unbounded input.
const maxTextLine = 64 << 20

// ReadText parses the text format into a header and records.
func ReadText(r io.Reader) (Header, []Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxTextLine)
	var h Header
	var recs []Record
	sawMagic, sawHeader := false, false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if !sawMagic {
			if line != textMagic {
				return h, nil, fmt.Errorf("trace: line 1: not a text trace (want %q)", textMagic)
			}
			sawMagic = true
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "header":
			kv, err := parseKV(fields[1:], lineNo)
			if err != nil {
				return h, nil, err
			}
			h.Rank = int(kv.get("rank", 0))
			h.NRanks = int(kv.get("nranks", 0))
			h.ClockHz = kv.get("clockhz", 0)
			if err := h.Validate(); err != nil {
				return h, nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			sawHeader = true
		case "meta":
			rest := strings.TrimSpace(strings.TrimPrefix(line, "meta"))
			k, v, ok := strings.Cut(rest, "=")
			if !ok {
				return h, nil, fmt.Errorf("trace: line %d: malformed meta line", lineNo)
			}
			if h.Meta == nil {
				h.Meta = map[string]string{}
			}
			h.Meta[k] = v
		default:
			kind, ok := kindByName[fields[0]]
			if !ok {
				return h, nil, fmt.Errorf("trace: line %d: unknown event kind %q", lineNo, fields[0])
			}
			kv, err := parseKV(fields[1:], lineNo)
			if err != nil {
				return h, nil, err
			}
			rec := Record{
				Kind:     kind,
				Begin:    kv.get("begin", 0),
				End:      kv.get("end", 0),
				Peer:     int32(kv.get("peer", int64(NoRank))),
				Tag:      int32(kv.get("tag", 0)),
				Bytes:    kv.get("bytes", 0),
				Req:      uint64(kv.get("req", 0)),
				Comm:     int32(kv.get("comm", 0)),
				Seq:      kv.get("seq", 0),
				Root:     int32(kv.get("root", int64(NoRank))),
				CommSize: int32(kv.get("size", 0)),
			}
			if err := rec.Validate(); err != nil {
				return h, nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			// A rank's events are a serial history: each must begin at or
			// after the previous one ended. Reject rather than normalize —
			// silently reordering would mask tracer bugs.
			if n := len(recs); n > 0 && rec.Begin < recs[n-1].End {
				return h, nil, fmt.Errorf("trace: line %d: non-monotone timestamp: %s begin=%d before previous end=%d",
					lineNo, rec.Kind, rec.Begin, recs[n-1].End)
			}
			recs = append(recs, rec)
		}
	}
	if err := sc.Err(); err != nil {
		return h, nil, err
	}
	if !sawMagic {
		return h, nil, errors.New("trace: empty input is not a text trace")
	}
	if !sawHeader {
		return h, nil, errors.New("trace: text trace missing header line")
	}
	return h, recs, nil
}

type kvmap map[string]int64

func (m kvmap) get(key string, def int64) int64 {
	if v, ok := m[key]; ok {
		return v
	}
	return def
}

func parseKV(fields []string, lineNo int) (kvmap, error) {
	m := kvmap{}
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("trace: line %d: field %q is not key=value", lineNo, f)
		}
		if k == "req" {
			// Request ids are unsigned: keep all 64 bits in the int64.
			u, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: req=%q is not an unsigned integer", lineNo, v)
			}
			m[k] = int64(u)
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %s=%q is not an integer", lineNo, k, v)
		}
		switch k {
		case "peer", "tag", "comm", "root", "size":
			if n < math.MinInt32 || n > math.MaxInt32 {
				return nil, fmt.Errorf("trace: line %d: %s=%d out of int32 range", lineNo, k, n)
			}
		}
		m[k] = n
	}
	return m, nil
}

// DumpText converts one rank's reader to the text format (draining the
// reader).
func DumpText(w io.Writer, r Reader) error {
	m, err := ReadAll(r)
	if err != nil {
		return err
	}
	return WriteText(w, m.Hdr, m.Records)
}
