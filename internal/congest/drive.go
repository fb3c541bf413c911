package congest

import "fmt"

// Request is what a node's Driver asks the scheduler to do next on its
// behalf. Build one with Exchange, Sleep, SleepUntil, Idle, RelayStream
// or RelayStreamFrom; the zero value is not a request.
//
// A Request is returned by value on every resume, so it stays within 72
// bytes: at 96 the amd64 compiler copied it with duffcopy calls that took
// about a tenth of a rand solve's CPU.
type Request struct {
	kind   uint8
	joined bool   // RelayStreamFrom: the host holds the joined stream's first message
	endCtl uint8  // RelayStream: the stream-terminating control code, 0 for none
	end    uint16 // RelayStream: the stream-terminating wire kind
	out    []Send
	round  int   // SleepUntil: the absolute round; Idle: the round count; RelayStream: the source port
	dst    []int // RelayStream: the forwarding ports
}

const (
	reqExchange = uint8(iota + 1)
	reqSleep
	reqSleepUntil
	reqIdle
	reqRelay
)

// Exchange sends out (nil sends nothing) and completes with the round's
// inbox, sorted by port. Sending two messages on one port in one round
// fails the run: the model allows one. Every other request is defined as
// a loop of exchanges.
//
// The inbox, like every request's result, aliases an engine-owned buffer
// that is reused: it is valid only until the node's next request.
func Exchange(out []Send) Request { return Request{kind: reqExchange, out: out} }

// Sleep parks the node until a round delivers it at least one message and
// completes with that round's inbox. It is defined as
//
//	for { if in := exchange(nil); len(in) > 0 { return in } }
//
// but costs no per-round scheduler work. A protocol in which every live
// node sleeps unboundedly with no message in flight is reported as
// ErrAsleep (the loop would spin into the round cap).
func Sleep() Request { return Request{kind: reqSleep} }

// SleepUntil parks the node until either a round delivers it a message
// (the result is that round's inbox) or the node's completed-round count
// reaches round (the result is nil). It is the message-interruptible
// Idle:
//
//	for h.Round() < round { if in := exchange(nil); len(in) > 0 { return in } }
//	return nil
func SleepUntil(round int) Request { return Request{kind: reqSleepUntil, round: round} }

// Idle advances the node through k rounds without sending; anything
// delivered to it meanwhile is discarded unread, exactly as k exchanges
// of nil that ignore their results would. The result is nil.
func Idle(k int) Request { return Request{kind: reqIdle, round: k} }

// RelayStream parks the node as a broadcast pipeline stage: every message
// arriving on srcPort is re-sent by the engine on every port in dstPorts
// one round later, with the node itself parked. A CONGEST port delivers
// at most one message per round, so the relayed stream accumulates in
// arrival order. The stream-terminating marker — a wire of kind endKind,
// or, when endCtl is nonzero, any wire carrying the control code endCtl
// (a stream whose last item is its own end mark) — is part of the
// pipeline: it is accumulated and forwarded like any other item, and
// the node wakes one round after that final forward (on the marker's
// arrival when dstPorts is empty), or earlier when a round delivers mail
// on any other port. It is defined as
//
//	var fwd []Send
//	for {
//	    in := exchange(fwd)
//	    fwd = nil
//	    for _, rc := range in {
//	        if rc.Port != srcPort {
//	            return relayed, in // deviation: nothing from in forwarded
//	        }
//	    }
//	    for _, rc := range in {
//	        for _, p := range dstPorts { fwd = append(fwd, resend(p, rc)) }
//	        relayed = append(relayed, rc)
//	        if rc.Wire.Kind == endKind || (endCtl != 0 && rc.Wire.Ctl == endCtl) {
//	            if len(dstPorts) == 0 { return relayed, nil }
//	            return relayed, exchange(fwd)
//	        }
//	    }
//	}
//
// relayed therefore holds the clean-round messages, already forwarded
// downstream, and ends with the marker on a normal stream end; last holds
// the waking round's extra mail (port-sorted): stragglers during the
// marker's forward round, or a deviating inbox, whose forwarding is again
// the node's business. The request's result is relayed followed by last;
// Host.RelaySplit separates the two. Because the stage neither wakes nor
// exchanges per stream element — marker included — an entire pipelined
// broadcast whose source has gone quiet is relay-only traffic: the engine
// forwards it hop by hop without resuming a single stage until its stream
// ends. This turns the hot inner loop of the collect primitives into
// engine-internal table work for every node that is neither the stream's
// source nor a point of deviation.
//
// dstPorts must be strictly ascending (which also guarantees one send per
// port per round); the run fails on a violation.
func RelayStream(srcPort int, dstPorts []int, endKind uint16, endCtl uint8) Request {
	return Request{kind: reqRelay, round: srcPort, dst: dstPorts, end: endKind, endCtl: endCtl}
}

// relayEnds reports whether w ends a relayed stream whose marker is a
// wire of kind endKind or, with endCtl nonzero, one carrying code endCtl.
func relayEnds(w Wire, endKind uint16, endCtl uint8) bool {
	return w.Kind == endKind || (endCtl != 0 && w.Ctl == endCtl)
}

// RelayStreamFrom is RelayStream for a stage that joins a stream already
// running: first is the stream's message that arrived on srcPort in the
// round just completed, and the order forwards it on every port in
// dstPorts in its first round, as the pipeline stage would have, while
// the stream's next message arrives. It is defined as RelayStream's loop
// with fwd starting as first's forwards; first is not part of relayed.
// first must be a message, not the end marker (which a stage forwards
// itself); the run fails otherwise. The host holds first until the
// request is taken, which keeps Request small.
func (h *Host) RelayStreamFrom(first Wire, srcPort int, dstPorts []int, endKind uint16, endCtl uint8) Request {
	h.relayFirst = first
	r := RelayStream(srcPort, dstPorts, endKind, endCtl)
	r.joined = true
	return r
}

// RelaySplit splits the result of the node's last relay request into the
// relayed stream and the waking round's extra mail.
func (h *Host) RelaySplit(in []Recv) (relayed, last []Recv) {
	cut := len(in) - h.relayLastN
	return in[:cut], in[cut:]
}

// checkRelay panics unless a relay request's destination ports ascend and
// a joined stream's first message (first) is not the end marker.
func checkRelay(r Request, first Wire) {
	for i, p := range r.dst {
		if p < 0 || (i > 0 && p <= r.dst[i-1]) {
			panic(fmt.Sprintf("congest: RelayStream destination ports %v not ascending", r.dst))
		}
	}
	if r.joined && relayEnds(first, r.end, r.endCtl) {
		panic("congest: RelayStreamFrom joins at the end marker")
	}
}

// Driver is a node program written as a continuation: Next receives the
// result of the previous request and returns the next one, or false when
// the node is done. Next runs with Host.Round already advanced past the
// completed request and may read the Host (ID, ports, Round, Rand).
type Driver interface {
	Next(in []Recv) (Request, bool)
}

// Chain runs stages in turn as one driver: each stage's start function
// is called once the previous stage's driver is done, in the same round,
// and returns the stage's first request and driver. A stage that returns
// a nil Driver is over at once (its start function did its work). The
// chain's own first request, Idle(0), takes no round: the first stage
// starts at once.
func Chain(stages ...func() (Request, Driver)) (Request, Driver) {
	return Idle(0), &chain{stages: stages}
}

type chain struct {
	stages []func() (Request, Driver)
	cur    Driver
}

func (c *chain) Next(in []Recv) (Request, bool) {
	if c.cur != nil {
		if req, more := c.cur.Next(in); more {
			return req, true
		}
	}
	for len(c.stages) > 0 {
		req, d := c.stages[0]()
		c.stages = c.stages[1:]
		if d != nil {
			c.cur = d
			return req, true
		}
	}
	c.cur = nil
	return Request{}, false
}

// begin installs d as the node's driver and translates req into its
// submission. Requests that take no round complete here, with d.Next(nil)
// asked for the next; ok is false when d reports done before any request
// takes a round, which uninstalls it.
func (h *Host) begin(req Request, d Driver) (sub submission, ok bool) {
	h.drv = d
	for {
		if sub, ok = h.submissionOf(req); ok {
			h.drvExch = sub.kind == subExchange
			return sub, true
		}
		more := false
		if req, more = d.Next(nil); !more {
			h.drv = nil
			return submission{}, false
		}
	}
}

// submissionOf translates a request into its submission; ok is false for
// a request that completes without a round (a SleepUntil already due, an
// Idle of k <= 0), whose result is nil.
func (h *Host) submissionOf(r Request) (sub submission, ok bool) {
	switch r.kind {
	case reqExchange:
		return submission{node: h.id, kind: subExchange, out: r.out}, true
	case reqSleep:
		h.ext = subExt{wakeAt: -1, wakeOnMsg: true}
	case reqSleepUntil:
		if r.round <= h.round {
			return submission{}, false
		}
		h.ext = subExt{wakeAt: r.round, wakeOnMsg: true}
	case reqIdle:
		if r.round <= 0 {
			return submission{}, false
		}
		h.ext = subExt{wakeAt: h.round + r.round, wakeOnMsg: false}
	case reqRelay:
		checkRelay(r, h.relayFirst)
		h.ext = subExt{relaySrc: r.round, relayDst: r.dst, relayEnd: r.end, relayEndCtl: r.endCtl, relayJoined: r.joined}
		return submission{node: h.id, kind: subRelay, ext: &h.ext}, true
	default:
		panic(fmt.Sprintf("congest: invalid Request kind %d", r.kind))
	}
	return submission{node: h.id, kind: subPark, ext: &h.ext}, true
}

// driveNext completes the node's pending request with in — syncing the
// round counter as the request defines — and asks the driver for the
// next one. more is false once the driver is done. A panic in Next
// becomes the node's subErr.
func (h *Host) driveNext(wokeRound int, in []Recv) (sub submission, more bool) {
	defer func() {
		if r := recover(); r != nil {
			h.drv = nil
			sub, more = panicked(h.id, r), true
		}
	}()
	if h.drvExch {
		h.round++
	} else {
		h.round = wokeRound
	}
	req, more := h.drv.Next(in)
	if !more {
		h.drv = nil
		return submission{}, false
	}
	return h.begin(req, h.drv)
}

// panicked is the subErr of node v whose start or Next panicked with r.
func panicked(v int, r any) submission {
	return submission{node: v, kind: subErr, err: fmt.Errorf("congest: node %d panicked: %v", v, r)}
}

// plainStart wraps start for the WithFastPath(false) reference: each
// node's driver runs inside a plainLoop, so every request reaches the
// engine as the Exchange loop that defines it.
func plainStart(start func(*Host) (Request, Driver)) func(*Host) (Request, Driver) {
	return func(h *Host) (Request, Driver) {
		first, d := start(h)
		l := &plainLoop{h: h, d: d}
		if l.begin(first) {
			// first takes no round: the Idle(0) kick-off takes none
			// either, and the Next(nil) that follows it hands the driver
			// first's nil result.
			return Idle(0), l
		}
		return Exchange(l.out), l
	}
}

// plainLoop runs a driver with each of its requests expanded into the
// Exchange loop that defines it (see Sleep, SleepUntil, Idle and
// RelayStream): every request it makes is an exchange, so under it a
// node exchanges in every round from its start to its end.
type plainLoop struct {
	h    *Host
	d    Driver
	req  Request // the request whose loop runs; zero once it is complete
	out  []Send  // the loop's next exchange
	left int     // Idle: rounds to go
	acc  []Recv  // RelayStream: the relayed stream, then the extra mail
	fwd  []Send  // RelayStream: forwards of the last clean round
	tail bool    // RelayStream: the next exchange forwards the end marker
}

// Next completes one exchange of the running loop. Once the loop's
// request is complete it hands the result to the driver and begins the
// driver's next request, completing those that take no round at once.
func (l *plainLoop) Next(in []Recv) (Request, bool) {
	res, done := l.step(in)
	for done {
		req, more := l.d.Next(res)
		if !more {
			return Request{}, false
		}
		res, done = nil, l.begin(req)
	}
	return Exchange(l.out), true
}

// begin starts req's loop, setting its first exchange; it reports true,
// and leaves no request running, when req takes no round.
func (l *plainLoop) begin(req Request) bool {
	l.req, l.out = req, nil
	switch req.kind {
	case reqExchange:
		l.out = req.out
	case reqSleep:
	case reqSleepUntil:
		if req.round <= l.h.round {
			l.req = Request{}
			return true
		}
	case reqIdle:
		if req.round <= 0 {
			l.req = Request{}
			return true
		}
		l.left = req.round
	case reqRelay:
		checkRelay(req, l.h.relayFirst)
		l.acc, l.tail = l.acc[:0], false
		if req.joined {
			l.fwd = l.fwd[:0]
			for _, p := range req.dst {
				l.fwd = append(l.fwd, Send{Port: p, Wire: l.h.relayFirst})
			}
			l.out = l.fwd
		}
	default:
		panic(fmt.Sprintf("congest: invalid Request kind %d", req.kind))
	}
	return false
}

// step takes the inbox of the running loop's last exchange and reports
// whether the request is complete, with its result; if not, it sets the
// loop's next exchange.
func (l *plainLoop) step(in []Recv) (res []Recv, done bool) {
	r := l.req
	l.out = nil
	switch r.kind {
	case 0: // the kick-off of a driver whose first request took no round
		return nil, true
	case reqExchange:
		return in, true
	case reqSleep:
		return in, len(in) > 0
	case reqSleepUntil:
		if len(in) > 0 {
			return in, true
		}
		return nil, l.h.round >= r.round
	case reqIdle:
		l.left--
		return nil, l.left == 0
	}
	// reqRelay
	deviates := l.tail
	for _, rc := range in {
		deviates = deviates || rc.Port != r.round
	}
	if deviates {
		l.h.relayLastN = len(in)
		l.acc = append(l.acc, in...)
		return l.acc, true
	}
	l.fwd = l.fwd[:0]
	for _, rc := range in {
		for _, p := range r.dst {
			l.fwd = append(l.fwd, Send{Port: p, Wire: rc.Wire})
		}
		l.acc = append(l.acc, rc)
		if relayEnds(rc.Wire, r.end, r.endCtl) {
			if len(r.dst) == 0 {
				l.h.relayLastN = 0
				return l.acc, true
			}
			l.tail = true
			break
		}
	}
	l.out = l.fwd
	return nil, false
}
