package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Binary stream format (version 1):
//
//	magic   "MPGT"          4 bytes
//	version uvarint         currently 1
//	rank    uvarint
//	nranks  uvarint
//	clockhz uvarint
//	nmeta   uvarint
//	nmeta × (key uvarint-len bytes, value uvarint-len bytes), sorted by key
//	records: each record is
//	    kind   uvarint (non-zero)
//	    dbegin varint  (begin delta vs previous record's begin; first is absolute)
//	    dur    uvarint (end - begin)
//	    flags  uvarint bitset of optional fields present
//	    ... optional fields in flag order, each varint/uvarint
//	terminator: kind value 0
//
// Delta-encoding the begin timestamps keeps long traces compact (most
// inter-event gaps are small relative to absolute cycle counts).

const (
	magic         = "MPGT"
	formatVersion = 1
)

// Flag bits for optional record fields.
const (
	flagPeer = 1 << iota
	flagTag
	flagBytes
	flagReq
	flagComm
	flagSeq
	flagRoot
	flagCommSize
)

// ErrBadMagic is returned when a stream does not begin with the trace
// magic bytes.
var ErrBadMagic = errors.New("trace: bad magic (not a trace stream)")

// Encoder writes a trace stream: one header followed by records in
// recording order. Close writes the stream terminator.
type Encoder struct {
	w         *bufio.Writer
	buf       []byte // one encoded record
	prevBegin int64
	closed    bool
}

// NewEncoder creates an encoder and immediately writes the header.
func NewEncoder(w io.Writer, h Header) (*Encoder, error) {
	hdr, err := appendHeader(nil, h)
	if err != nil {
		return nil, err
	}
	e := &Encoder{w: bufio.NewWriter(w)}
	if _, err := e.w.Write(hdr); err != nil {
		return nil, err
	}
	return e, nil
}

// Encode appends one record to the stream.
func (e *Encoder) Encode(r Record) error {
	if e.closed {
		return errors.New("trace: encode on closed encoder")
	}
	if err := r.Validate(); err != nil {
		return err
	}
	e.buf = appendRecord(e.buf[:0], r, e.prevBegin)
	e.prevBegin = r.Begin
	e.w.Write(e.buf) //nolint:errcheck // bufio defers errors to Flush
	return nil
}

// Close writes the terminator and flushes buffered output. It does not
// close the underlying writer.
func (e *Encoder) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	e.w.WriteByte(0) //nolint:errcheck // terminator; bufio defers errors to Flush
	return e.w.Flush()
}

// appendHeader validates h and appends its encoding to dst.
func appendHeader(dst []byte, h Header) ([]byte, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	dst = append(dst, magic...)
	dst = binary.AppendUvarint(dst, formatVersion)
	dst = binary.AppendUvarint(dst, uint64(h.Rank))
	dst = binary.AppendUvarint(dst, uint64(h.NRanks))
	dst = binary.AppendUvarint(dst, uint64(h.ClockHz))
	keys := make([]string, 0, len(h.Meta))
	for k := range h.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = appendString(dst, h.Meta[k])
	}
	return dst, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendRecord appends the encoding of a valid record r, whose begin
// is delta-encoded against prevBegin, the previous record's begin.
func appendRecord(dst []byte, r Record, prevBegin int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.Kind))
	dst = binary.AppendVarint(dst, r.Begin-prevBegin)
	dst = binary.AppendUvarint(dst, uint64(r.Duration()))
	var flags uint64
	if r.Peer != NoRank && r.Peer != 0 || r.Peer == 0 && r.Kind.IsPointToPoint() {
		flags |= flagPeer
	}
	if r.Tag != 0 {
		flags |= flagTag
	}
	if r.Bytes != 0 {
		flags |= flagBytes
	}
	if r.Req != 0 {
		flags |= flagReq
	}
	if r.Comm != 0 {
		flags |= flagComm
	}
	if r.Seq != 0 {
		flags |= flagSeq
	}
	if r.Root != NoRank && (r.Root != 0 || r.Kind.IsRooted()) {
		flags |= flagRoot
	}
	if r.CommSize != 0 {
		flags |= flagCommSize
	}
	dst = binary.AppendUvarint(dst, flags)
	if flags&flagPeer != 0 {
		dst = binary.AppendVarint(dst, int64(r.Peer))
	}
	if flags&flagTag != 0 {
		dst = binary.AppendVarint(dst, int64(r.Tag))
	}
	if flags&flagBytes != 0 {
		dst = binary.AppendUvarint(dst, uint64(r.Bytes))
	}
	if flags&flagReq != 0 {
		dst = binary.AppendUvarint(dst, r.Req)
	}
	if flags&flagComm != 0 {
		dst = binary.AppendVarint(dst, int64(r.Comm))
	}
	if flags&flagSeq != 0 {
		dst = binary.AppendUvarint(dst, uint64(r.Seq))
	}
	if flags&flagRoot != 0 {
		dst = binary.AppendVarint(dst, int64(r.Root))
	}
	if flags&flagCommSize != 0 {
		dst = binary.AppendUvarint(dst, uint64(r.CommSize))
	}
	return dst
}

// Decoder reads a trace stream produced by Encoder.
type Decoder struct {
	r      *bufio.Reader
	header Header
	done   bool
	prev   int64
}

// NewDecoder reads and validates the stream header.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{r: bufio.NewReader(r)}
	var m [4]byte
	if _, err := io.ReadFull(d.r, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(m[:]) != magic {
		return nil, ErrBadMagic
	}
	ver, err := binary.ReadUvarint(d.r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", err)
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("trace: unsupported format version %d", ver)
	}
	rank, err := binary.ReadUvarint(d.r)
	if err != nil {
		return nil, err
	}
	nranks, err := binary.ReadUvarint(d.r)
	if err != nil {
		return nil, err
	}
	clockhz, err := binary.ReadUvarint(d.r)
	if err != nil {
		return nil, err
	}
	nmeta, err := binary.ReadUvarint(d.r)
	if err != nil {
		return nil, err
	}
	if nmeta > 1<<20 {
		return nil, fmt.Errorf("trace: implausible metadata count %d", nmeta)
	}
	var meta map[string]string
	if nmeta > 0 {
		meta = make(map[string]string, nmeta)
		for i := uint64(0); i < nmeta; i++ {
			k, err := d.readString()
			if err != nil {
				return nil, err
			}
			v, err := d.readString()
			if err != nil {
				return nil, err
			}
			meta[k] = v
		}
	}
	d.header = Header{Rank: int(rank), NRanks: int(nranks), ClockHz: int64(clockhz), Meta: meta}
	if err := d.header.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Decoder) readString() (string, error) {
	n, err := binary.ReadUvarint(d.r)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("trace: implausible string length %d", n)
	}
	var sb strings.Builder
	sb.Grow(int(n))
	if _, err := io.CopyN(&sb, d.r, int64(n)); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// Header returns the stream header read by NewDecoder.
func (d *Decoder) Header() Header { return d.header }

// Decode reads the next record. It returns io.EOF after the stream
// terminator (a clean end) and a wrapped io.ErrUnexpectedEOF if the
// stream is truncated mid-record. A field whose value does not fit
// the record (a kind above 255, a rank, tag, communicator or size
// outside int32, a byte count or sequence number above MaxInt64, a
// begin or end that overflows int64) is an error, not truncated.
func (d *Decoder) Decode() (Record, error) {
	if d.done {
		return Record{}, io.EOF
	}
	kind, err := binary.ReadUvarint(d.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, fmt.Errorf("trace: truncated stream (missing terminator): %w", io.ErrUnexpectedEOF)
		}
		return Record{}, err
	}
	if kind == 0 {
		d.done = true
		return Record{}, io.EOF
	}
	if kind > math.MaxUint8 {
		return Record{}, fmt.Errorf("trace: invalid kind %d", kind)
	}
	var r Record
	r.Kind = Kind(kind)
	dbegin, err := binary.ReadVarint(d.r)
	if err != nil {
		return Record{}, truncated(err)
	}
	if dbegin > 0 && d.prev > math.MaxInt64-dbegin || dbegin < 0 && d.prev < math.MinInt64-dbegin {
		return Record{}, fmt.Errorf("trace: begin delta %d overflows previous begin %d", dbegin, d.prev)
	}
	r.Begin = d.prev + dbegin
	d.prev = r.Begin
	dur, err := binary.ReadUvarint(d.r)
	if err != nil {
		return Record{}, truncated(err)
	}
	if dur > uint64(math.MaxInt64-r.Begin) {
		return Record{}, fmt.Errorf("trace: duration %d overflows begin %d", dur, r.Begin)
	}
	r.End = r.Begin + int64(dur)
	flags, err := binary.ReadUvarint(d.r)
	if err != nil {
		return Record{}, truncated(err)
	}
	r.Peer, r.Root = NoRank, NoRank
	if flags&flagPeer != 0 {
		if r.Peer, err = d.readInt32("peer"); err != nil {
			return Record{}, err
		}
	}
	if flags&flagTag != 0 {
		if r.Tag, err = d.readInt32("tag"); err != nil {
			return Record{}, err
		}
	}
	if flags&flagBytes != 0 {
		if r.Bytes, err = d.readInt63("bytes"); err != nil {
			return Record{}, err
		}
	}
	if flags&flagReq != 0 {
		if r.Req, err = binary.ReadUvarint(d.r); err != nil {
			return Record{}, truncated(err)
		}
	}
	if flags&flagComm != 0 {
		if r.Comm, err = d.readInt32("comm"); err != nil {
			return Record{}, err
		}
	}
	if flags&flagSeq != 0 {
		if r.Seq, err = d.readInt63("seq"); err != nil {
			return Record{}, err
		}
	}
	if flags&flagRoot != 0 {
		if r.Root, err = d.readInt32("root"); err != nil {
			return Record{}, err
		}
	}
	if flags&flagCommSize != 0 {
		v, err := binary.ReadUvarint(d.r)
		if err != nil {
			return Record{}, truncated(err)
		}
		if v > math.MaxInt32 {
			return Record{}, fmt.Errorf("trace: size %d out of int32 range", v)
		}
		r.CommSize = int32(v)
	}
	if err := r.Validate(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// readInt32 reads a varint field that must fit an int32.
func (d *Decoder) readInt32(field string) (int32, error) {
	v, err := binary.ReadVarint(d.r)
	if err != nil {
		return 0, truncated(err)
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("trace: %s %d out of int32 range", field, v)
	}
	return int32(v), nil
}

// readInt63 reads a uvarint field that must fit a non-negative int64.
func (d *Decoder) readInt63(field string) (int64, error) {
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		return 0, truncated(err)
	}
	if v > math.MaxInt64 {
		return 0, fmt.Errorf("trace: %s %d out of int64 range", field, v)
	}
	return int64(v), nil
}

// truncated reports a read error inside a record. A stream that ends
// there is truncated, never cleanly ended: io.EOF becomes
// io.ErrUnexpectedEOF so no reader mistakes it for the terminator.
func truncated(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("trace: truncated record: %w", err)
}
