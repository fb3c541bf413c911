package congest

import "fmt"

// Request is one blocking Host call expressed as data — what a Driver
// asks the scheduler to do next on its node's behalf. Build one with
// Exchange, Sleep, SleepUntil, Idle or RelayStream; the zero value is not
// a request.
type Request struct {
	kind  uint8
	out   []Send
	round int    // SleepUntil: the absolute round; Idle: the round count; RelayStream: the source port
	dst   []int  // RelayStream: the forwarding ports
	end   uint16 // RelayStream: the stream-terminating wire kind
}

const (
	reqExchange = uint8(iota + 1)
	reqSleep
	reqSleepUntil
	reqIdle
	reqRelay
)

// Exchange is the request form of Host.Exchange: send out (nil sends
// nothing) and receive the round's inbox.
func Exchange(out []Send) Request { return Request{kind: reqExchange, out: out} }

// Sleep is the request form of Host.Sleep: park until a round delivers
// mail, whose inbox is the result.
func Sleep() Request { return Request{kind: reqSleep} }

// SleepUntil is the request form of Host.SleepUntil: park until mail
// arrives (the result is its inbox) or the completed-round count reaches
// round (the result is nil).
func SleepUntil(round int) Request { return Request{kind: reqSleepUntil, round: round} }

// Idle is the request form of Host.Idle: advance k rounds, discarding any
// mail unread; the result is nil.
func Idle(k int) Request { return Request{kind: reqIdle, round: k} }

// RelayStream is the request form of Host.RelayStream: park as a pipeline
// stage forwarding srcPort's stream to dstPorts. The result is the relayed
// stream followed by the waking round's extra mail; Host.RelaySplit
// separates the two.
func RelayStream(srcPort int, dstPorts []int, endKind uint16) Request {
	return Request{kind: reqRelay, round: srcPort, dst: dstPorts, end: endKind}
}

// Driver is a node program's tail written as a continuation: Next
// receives the result of the previous request and returns the next one,
// or false when the driven part is over. Next runs with Host.Round
// already advanced past the completed request and may read the Host (ID,
// ports, Round, Rand), but it must not call the Host's blocking methods
// itself — it returns them as requests instead.
type Driver interface {
	Next(in []Recv) (Request, bool)
}

// Drive runs d from first on, returning when d.Next reports done. It is
// defined as the blocking loop
//
//	for req := first; ; {
//	    in := h.do(req)
//	    if req, more = d.Next(in); !more { return }
//	}
//
// which is also its implementation with the fast paths off. With them on,
// the node's coroutine instead suspends once, handing first to the
// scheduler, which then calls Next itself each time the request completes
// — no coroutine switch per request — and switches back into the program
// only when Next reports done. Rounds, messages and every Next call are
// identical on both paths; a panic in Next fails the run exactly as a
// panic in the program would.
func (h *Host) Drive(first Request, d Driver) {
	if !h.fast {
		for req, more := first, true; more; {
			req, more = d.Next(h.do(req))
		}
		return
	}
	if h.drv != nil {
		panic(errBlockingInNext)
	}
	sub, ok := h.begin(first, d)
	if !ok {
		return
	}
	if !h.yield(sub) {
		panic(abortSentinel{})
	}
}

// begin installs d as the node's driver and translates req into the
// submission its blocking call would yield. Requests that take no round
// complete here, on the caller's stack, with d.Next(nil) asked for the
// next; ok is false when d reports done before any request takes a round,
// which uninstalls it.
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

// do performs one request as the corresponding blocking call.
func (h *Host) do(r Request) []Recv {
	switch r.kind {
	case reqExchange:
		return h.Exchange(r.out)
	case reqSleep:
		return h.Sleep()
	case reqSleepUntil:
		return h.SleepUntil(r.round)
	case reqIdle:
		h.Idle(r.round)
		return nil
	case reqRelay:
		return h.relay(r)
	}
	panic(fmt.Sprintf("congest: invalid Request kind %d", r.kind))
}

// submissionOf translates a fast-path request into the submission its
// blocking call would yield; ok is false for a request that completes
// without a round (a SleepUntil already due, an Idle of k <= 0), whose
// result is nil.
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
		h.setRelay(r)
		return submission{node: h.id, kind: subRelay, ext: &h.ext}, true
	default:
		panic(fmt.Sprintf("congest: invalid Request kind %d", r.kind))
	}
	return submission{node: h.id, kind: subPark, ext: &h.ext}, true
}

// driveNext completes a driven node's pending request with in — syncing the
// round counter as the blocking call would have — and asks the driver for
// the next one. more is false once the driver is done; the caller then
// switches back into the program, whose Drive returns, or finishes a
// RunDriven node. A panic in Next becomes the node's subErr, worded as
// runProtected words a program's.
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

// panicked is the subErr of node v whose program, start or Next panicked
// with r.
func panicked(v int, r any) submission {
	return submission{node: v, kind: subErr, err: fmt.Errorf("congest: node %d panicked: %v", v, r)}
}
