package timeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// exportBuffer is the write size of the export: large enough that the
// write syscalls do not show in an export profile.
const exportBuffer = 64 << 10

// eventRoom is the free buffer space the encoder asks for before it
// starts an event. Every event the export writes fits in it unless it
// carries a long span name, which then just grows the slice.
const eventRoom = 512

// encoder appends trace events straight into the bufio.Writer's free
// buffer with strconv: no reflection and no allocation per event. Its
// bytes equal encoding/json's for an object with the fields, in this
// order, name, cat, ph, ts, pid, tid, id, bp and args, where name, cat
// and bp are omitted when empty, id when zero and args when absent, and
// args holds exactly one key. The tests pin that equality against an
// encoding/json reference.
type encoder struct {
	w   *bufio.Writer
	sep bool // an event is written; the next one needs a separator
	err error
}

// newEncoder starts a trace-event document on w.
func newEncoder(w io.Writer) *encoder {
	en := &encoder{w: bufio.NewWriterSize(w, exportBuffer)}
	en.w.WriteString("{\"traceEvents\":[\n") //nolint:errcheck // bufio errors are sticky; finish reports them
	return en
}

// finish closes the document and flushes it, returning the first error
// met on the way.
func (en *encoder) finish() error {
	if en.err != nil {
		return en.err
	}
	en.w.WriteString("\n]}\n") //nolint:errcheck // bufio errors are sticky; Flush reports them
	return en.w.Flush()
}

// open starts an event: it returns the buffer holding the separator
// and the fields up to and including tid. The caller appends the
// optional tail and hands the buffer to close. Once an error is
// recorded, open and close do nothing.
func (en *encoder) open(name, cat string, ph byte, ts float64, pid, tid int) []byte {
	if en.err != nil {
		return nil
	}
	if en.w.Available() < eventRoom {
		if err := en.w.Flush(); err != nil {
			en.err = err
		}
	}
	b := en.w.AvailableBuffer()
	if en.sep {
		b = append(b, ",\n"...)
	}
	b = append(b, '{')
	if name != "" {
		b = append(b, `"name":`...)
		b = appendString(b, name)
		b = append(b, ',')
	}
	if cat != "" {
		b = append(b, `"cat":`...)
		b = appendString(b, cat)
		b = append(b, ',')
	}
	b = append(b, `"ph":"`...)
	b = append(b, ph, '"')
	b = append(b, `,"ts":`...)
	b = en.float(b, ts, ph, name)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	return strconv.AppendInt(b, int64(tid), 10)
}

// close ends the event in b and commits it to the writer.
func (en *encoder) close(b []byte) {
	if en.err != nil {
		return
	}
	b = append(b, '}')
	_, en.err = en.w.Write(b)
	en.sep = true
}

// float appends f, recording a non-finite value as the export's error.
func (en *encoder) float(b []byte, f float64, ph byte, name string) []byte {
	b, err := appendFloat(b, f)
	if err != nil && en.err == nil {
		en.err = fmt.Errorf("timeline: %c event %q: %w", ph, name, err)
	}
	return b
}

// slice writes one duration slice as its B/E pair.
func (en *encoder) slice(name, cat string, pid, tid int, start, end float64) {
	en.close(en.open(name, cat, 'B', start, pid, tid))
	en.close(en.open("", "", 'E', end, pid, tid))
}

// flow writes one s/f flow pair on the rank process.
func (en *encoder) flow(name, cat string, id int64, sTs float64, sTid int, fTs float64, fTid int) {
	b := en.open(name, cat, 's', sTs, pidRanks, sTid)
	en.close(appendID(b, id))
	b = en.open(name, cat, 'f', fTs, pidRanks, fTid)
	b = appendID(b, id)
	en.close(append(b, `,"bp":"e"`...))
}

func appendID(b []byte, id int64) []byte {
	if id == 0 {
		return b
	}
	b = append(b, `,"id":`...)
	return strconv.AppendInt(b, id, 10)
}

// counter writes one sample of a counter track on the rank process.
func (en *encoder) counter(name string, ts, v float64) {
	b := en.open(name, "", 'C', ts, pidRanks, 0)
	b = append(b, `,"args":{"value":`...)
	b = en.float(b, v, 'C', name)
	en.close(append(b, '}'))
}

// process names a process.
func (en *encoder) process(pid int, name string) {
	b := en.open("process_name", "", 'M', 0, pid, 0)
	b = append(b, `,"args":{"name":`...)
	b = appendString(b, name)
	en.close(append(b, '}'))
}

// thread names thread tid "<label><tid>" and sorts it by tid. label is
// plain ASCII, so the name needs no escaping.
func (en *encoder) thread(pid, tid int, label string) {
	b := en.open("thread_name", "", 'M', 0, pid, tid)
	b = append(b, `,"args":{"name":"`...)
	b = append(b, label...)
	b = strconv.AppendInt(b, int64(tid), 10)
	en.close(append(b, `"}`...))
	b = en.open("thread_sort_index", "", 'M', 0, pid, tid)
	b = append(b, `,"args":{"sort_index":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	en.close(append(b, '}'))
}

// appendFloat appends f exactly as encoding/json encodes a float64:
// the shortest representation that round-trips, in 'f' format, except
// 'e' format when |f| < 1e-6 or |f| >= 1e21, with a two-digit negative
// exponent shortened (e-07 → e-7). NaN and ±Inf have no JSON encoding
// and are an error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s as a JSON string exactly as encoding/json
// does, HTML escaping included. Printable ASCII other than ", \, <, >
// and & is copied as-is; any other string, which the export meets only
// in user-chosen span names, is left to encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
