package mpi

import (
	"fmt"

	"mpgraph/internal/trace"
)

// Comm is a communicator handle held by one rank. Two ranks in the
// same communicator hold distinct Comm values sharing the id and the
// member list (in communicator rank order). Collective sequence
// numbers are counted locally per handle; they agree across members
// because MPI requires all members to issue collectives in the same
// order.
type Comm struct {
	rank    *Rank
	id      int32
	members []int // world ranks, indexed by communicator rank
	myIdx   int   // this rank's communicator rank
	seq     int64
}

// ID returns the communicator id (0 is the world communicator).
func (c *Comm) ID() int32 { return c.id }

// Size returns the number of members.
func (c *Comm) Size() int { return len(c.members) }

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.myIdx }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(commRank int) int {
	if commRank < 0 || commRank >= len(c.members) {
		panic(fmt.Sprintf("mpi: comm rank %d outside communicator of size %d", commRank, len(c.members)))
	}
	return c.members[commRank]
}

// --- Point-to-point ---------------------------------------------------

// chanKey identifies a point-to-point matching queue. Ranks are world
// ranks; comm scopes tags.
type chanKey struct {
	comm     int32
	src, dst int32
	tag      int32
}

// matchQueue holds unmatched posted operations for one key, FIFO.
type matchQueue struct {
	sends []*xfer
	recvs []*xfer
}

// xfer is one point-to-point transfer from posting to completion.
type xfer struct {
	comm     int32
	src, dst int32 // world ranks
	tag      int32
	bytes    int64

	sendPost, recvPost int64 // global post times (after call overhead)
	sendPosted         bool
	recvPosted         bool

	eager        bool
	eagerArrival int64 // data arrival, precomputed at eager send post

	cS, cR           int64 // completion times
	cSValid, cRValid bool

	sendWaiter *proc // proc blocked awaiting the send completion
	recvWaiter *proc // proc blocked awaiting the recv completion
}

func (x *xfer) setWaiter(isSend bool, p *proc) {
	if isSend {
		x.sendWaiter = p
	} else {
		x.recvWaiter = p
	}
}

// wildKey indexes pending operations by destination and tag across
// all sources, for AnySource matching.
type wildKey struct {
	comm int32
	dst  int32
	tag  int32
}

func (w *World) queue(k chanKey) *matchQueue {
	q := w.queues[k]
	if q == nil {
		q = &matchQueue{}
		w.queues[k] = q
	}
	return q
}

// postSend registers a send (blocking or not) at global time post and
// returns the transfer. If a matching receive is already pending, the
// transfer is completed immediately.
func (w *World) postSend(comm int32, src, dst, tag int32, bytes, post int64) *xfer {
	return w.postSendMode(comm, src, dst, tag, bytes, post, sendDefault)
}

// postSendMode is postSend with an explicit blocking-send flavour.
func (w *World) postSendMode(comm int32, src, dst, tag int32, bytes, post int64, mode sendMode) *xfer {
	k := chanKey{comm: comm, src: src, dst: dst, tag: tag}
	q := w.queue(k)
	var x *xfer
	if len(q.recvs) > 0 {
		x = q.recvs[0]
		q.recvs = q.recvs[1:]
		x.bytes = bytes
	} else {
		x = &xfer{comm: comm, src: src, dst: dst, tag: tag, bytes: bytes}
		q.sends = append(q.sends, x)
	}
	x.sendPosted = true
	x.sendPost = post
	switch mode {
	case sendSync:
		x.eager = false
	case sendBuffered:
		x.eager = true
	default:
		x.eager = w.m.Eager(bytes)
	}
	if !x.recvPosted {
		// A wildcard receive may be waiting for any source.
		wk := wildKey{comm: comm, dst: dst, tag: tag}
		if rq := w.wildRecvs[wk]; len(rq) > 0 {
			wr := rq[0]
			w.wildRecvs[wk] = rq[1:]
			if len(w.wildRecvs[wk]) == 0 {
				delete(w.wildRecvs, wk)
			}
			// Splice: the wildcard receive adopts this transfer. Remove
			// the fresh xfer from the specific queue and transplant the
			// receive side.
			w.dropUnmatched(k, x)
			x.recvPosted = true
			x.recvPost = wr.recvPost
			x.recvWaiter = wr.recvWaiter
			wr.adopted = x
		} else {
			w.wildSends[wk] = append(w.wildSends[wk], x)
		}
	}
	if x.eager {
		// Eager: data leaves as soon as the sender posts; the sender
		// completes after the local copy/injection, independent of the
		// receiver.
		ser := w.m.XferCycles(bytes)
		injStart := w.m.InjectAt(int(src), post, ser)
		x.eagerArrival = injStart + ser + w.m.PathLatency(int(src), int(dst))
		x.cS = post + ser
		x.cSValid = true
	}
	if x.recvPosted {
		w.completeMatch(x)
	}
	return x
}

// postRecv registers a receive (blocking or not) at global time post.
func (w *World) postRecv(comm int32, src, dst, tag int32, post int64) *xfer {
	k := chanKey{comm: comm, src: src, dst: dst, tag: tag}
	q := w.queue(k)
	var x *xfer
	if len(q.sends) > 0 {
		x = q.sends[0]
		q.sends = q.sends[1:]
	} else {
		x = &xfer{comm: comm, src: src, dst: dst, tag: tag}
		q.recvs = append(q.recvs, x)
	}
	x.recvPosted = true
	x.recvPost = post
	if x.sendPosted {
		w.completeMatch(x)
	}
	return x
}

// completeMatch computes the transfer's completion times once both
// sides have posted, and wakes any parties blocked on them. Timing
// model:
//
//	eager:      arrival = inject(sendPost) + ser + λ   (precomputed)
//	            cS = sendPost + ser                    (precomputed)
//	rendezvous: start = max(sendPost, recvPost)
//	            arrival = inject(start) + ser + λ₁
//	            cS = cR + λ₂                           (ack path, Eq. 1)
//	cR = max(recvPost, arrival)
func (w *World) completeMatch(x *xfer) {
	ser := w.m.XferCycles(x.bytes)
	if x.eager {
		x.cR = max64(x.recvPost, x.eagerArrival)
		x.cRValid = true
	} else {
		start := max64(x.sendPost, x.recvPost)
		injStart := w.m.InjectAt(int(x.src), start, ser)
		arrival := injStart + ser + w.m.PathLatency(int(x.src), int(x.dst))
		x.cR = max64(x.recvPost, arrival)
		x.cRValid = true
		x.cS = x.cR + w.m.PathLatency(int(x.dst), int(x.src))
		x.cSValid = true
	}
	w.stats.Messages++
	w.stats.BytesSent += x.bytes
	if x.sendWaiter != nil {
		w.unblock(x.sendWaiter, x.cS)
		x.sendWaiter = nil
	}
	if x.recvWaiter != nil {
		w.unblock(x.recvWaiter, x.cR)
		x.recvWaiter = nil
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// wildRecv is a posted-but-unmatched AnySource receive.
type wildRecv struct {
	recvPost   int64
	recvWaiter *proc
	adopted    *xfer // set when a send arrives and adopts this receive
}

// RecvAny is MPI_Recv with MPI_ANY_SOURCE: it blocks until a message
// with the given tag arrives from any rank, returning the resolved
// source (communicator rank) and payload size. The resolved source is
// recorded in the trace, so the graph builder never sees a wildcard
// (the PMPI convention: the tracer reads the source from MPI_Status).
// Matching precedence is deterministic: pending sends are adopted in
// posting order; a specific receive already posted for the same
// (source, tag) takes precedence over a later wildcard.
func (c *Comm) RecvAny(tag int) (src int, bytes int64) {
	r := c.rank
	p := r.proc
	w := r.world
	t0 := p.now
	p.now += w.m.RecvOverhead() + w.m.OpNoise(p.rank)
	w.yield(p)
	wk := wildKey{comm: c.id, dst: int32(p.rank), tag: int32(tag)}
	// Adopt the oldest still-unmatched pending send to us with this tag.
	var x *xfer
	sends := w.wildSends[wk]
	for len(sends) > 0 {
		cand := sends[0]
		sends = sends[1:]
		if !cand.recvPosted { // not claimed by a specific receive
			x = cand
			break
		}
	}
	if len(sends) == 0 {
		delete(w.wildSends, wk)
	} else {
		w.wildSends[wk] = sends
	}
	if x != nil {
		// Remove from its specific queue and complete.
		k := chanKey{comm: c.id, src: x.src, dst: int32(p.rank), tag: int32(tag)}
		w.dropUnmatched(k, x)
		x.recvPosted = true
		x.recvPost = p.now
		w.completeMatch(x)
		if x.cR > p.now {
			p.now = x.cR
		}
	} else {
		// Park until any matching send arrives.
		wr := &wildRecv{recvPost: p.now, recvWaiter: p}
		w.wildRecvs[wk] = append(w.wildRecvs[wk], wr)
		w.block(p, blockReason{op: blockRecvAny, tag: tag})
		x = wr.adopted
		if x == nil {
			panic("mpi: wildcard receive resumed without a transfer")
		}
	}
	r.record(trace.Record{Kind: trace.KindRecv, Begin: t0, End: p.now,
		Peer: x.src, Tag: int32(tag), Bytes: x.bytes, Comm: c.id, Root: trace.NoRank})
	// Translate the world rank back to a communicator rank.
	for i, wr := range c.members {
		if wr == int(x.src) {
			return i, x.bytes
		}
	}
	panic(fmt.Sprintf("mpi: wildcard source %d not in communicator", x.src))
}

// dropUnmatched removes an xfer from a specific queue's pending lists.
func (w *World) dropUnmatched(k chanKey, x *xfer) {
	q := w.queues[k]
	if q == nil {
		return
	}
	for i, cand := range q.sends {
		if cand == x {
			q.sends = append(q.sends[:i], q.sends[i+1:]...)
			break
		}
	}
	for i, cand := range q.recvs {
		if cand == x {
			q.recvs = append(q.recvs[:i], q.recvs[i+1:]...)
			break
		}
	}
}

// sendMode selects the blocking-send flavour (paper §3.1.1: "the MPI
// specification provides three forms of blocking send").
type sendMode uint8

const (
	sendDefault  sendMode = iota // machine policy (EagerLimit)
	sendSync                     // always rendezvous (MPI_Ssend)
	sendBuffered                 // always eager/buffered (MPI_Bsend)
)

// Send is MPI_Send: it blocks until the transfer completes (eager
// sends complete after the local copy; rendezvous sends wait for the
// receiver's acknowledgment, the paper's Eq. 1 ack path). Whether a
// given size is eager follows the machine's EagerLimit.
func (c *Comm) Send(dst, tag int, bytes int64) { c.sendMode(dst, tag, bytes, sendDefault) }

// Ssend is MPI_Ssend: a synchronous send that always waits for the
// receiver regardless of the machine's eager threshold.
func (c *Comm) Ssend(dst, tag int, bytes int64) { c.sendMode(dst, tag, bytes, sendSync) }

// Bsend is MPI_Bsend: a buffered send that always completes after the
// local copy, regardless of size.
func (c *Comm) Bsend(dst, tag int, bytes int64) { c.sendMode(dst, tag, bytes, sendBuffered) }

func (c *Comm) sendMode(dst, tag int, bytes int64, mode sendMode) {
	if bytes < 0 {
		panic("mpi: negative message size")
	}
	r := c.rank
	p := r.proc
	w := r.world
	dstW := int32(c.WorldRank(dst))
	if int(dstW) == p.rank {
		panic("mpi: send to self is not supported")
	}
	t0 := p.now
	p.now += w.m.SendOverhead() + w.m.OpNoise(p.rank)
	w.yield(p)
	x := w.postSendMode(c.id, int32(p.rank), dstW, int32(tag), bytes, p.now, mode)
	if !x.cSValid {
		x.sendWaiter = p
		w.block(p, blockReason{op: blockSend, peer: dstW, tag: tag})
	} else if x.cS > p.now {
		p.now = x.cS
	}
	r.record(trace.Record{Kind: trace.KindSend, Begin: t0, End: p.now,
		Peer: dstW, Tag: int32(tag), Bytes: bytes, Comm: c.id, Root: trace.NoRank})
}

// Recv is MPI_Recv: it blocks until a matching message has arrived,
// and returns the payload size.
func (c *Comm) Recv(src, tag int) int64 {
	r := c.rank
	p := r.proc
	w := r.world
	srcW := int32(c.WorldRank(src))
	if int(srcW) == p.rank {
		panic("mpi: receive from self is not supported")
	}
	t0 := p.now
	p.now += w.m.RecvOverhead() + w.m.OpNoise(p.rank)
	w.yield(p)
	x := w.postRecv(c.id, srcW, int32(p.rank), int32(tag), p.now)
	if !x.cRValid {
		x.recvWaiter = p
		w.block(p, blockReason{op: blockRecv, peer: srcW, tag: tag})
	} else if x.cR > p.now {
		p.now = x.cR
	}
	r.record(trace.Record{Kind: trace.KindRecv, Begin: t0, End: p.now,
		Peer: srcW, Tag: int32(tag), Bytes: x.bytes, Comm: c.id, Root: trace.NoRank})
	return x.bytes
}

// Isend is MPI_Isend: it returns immediately with a request handle.
func (c *Comm) Isend(dst, tag int, bytes int64) *Request {
	if bytes < 0 {
		panic("mpi: negative message size")
	}
	r := c.rank
	p := r.proc
	w := r.world
	dstW := int32(c.WorldRank(dst))
	if int(dstW) == p.rank {
		panic("mpi: send to self is not supported")
	}
	t0 := p.now
	p.now += w.m.SendOverhead() + w.m.OpNoise(p.rank)
	w.yield(p)
	x := w.postSend(c.id, int32(p.rank), dstW, int32(tag), bytes, p.now)
	p.reqSeq++
	req := &Request{id: p.reqSeq, owner: p.rank, isSend: true, x: x}
	r.record(trace.Record{Kind: trace.KindIsend, Begin: t0, End: p.now,
		Peer: dstW, Tag: int32(tag), Bytes: bytes, Req: req.id, Comm: c.id, Root: trace.NoRank})
	return req
}

// Irecv is MPI_Irecv: it returns immediately with a request handle.
func (c *Comm) Irecv(src, tag int) *Request {
	r := c.rank
	p := r.proc
	w := r.world
	srcW := int32(c.WorldRank(src))
	if int(srcW) == p.rank {
		panic("mpi: receive from self is not supported")
	}
	t0 := p.now
	p.now += w.m.RecvOverhead() + w.m.OpNoise(p.rank)
	w.yield(p)
	x := w.postRecv(c.id, srcW, int32(p.rank), int32(tag), p.now)
	p.reqSeq++
	req := &Request{id: p.reqSeq, owner: p.rank, isSend: false, x: x}
	r.record(trace.Record{Kind: trace.KindIrecv, Begin: t0, End: p.now,
		Peer: srcW, Tag: int32(tag), Bytes: x.bytes, Req: req.id, Comm: c.id, Root: trace.NoRank})
	return req
}

// Sendrecv posts a nonblocking send and receive, then completes both.
// It returns the received payload size.
func (c *Comm) Sendrecv(dst, sendTag int, bytes int64, src, recvTag int) int64 {
	sreq := c.Isend(dst, sendTag, bytes)
	rreq := c.Irecv(src, recvTag)
	c.rank.Waitall(sreq, rreq)
	return rreq.Bytes()
}
