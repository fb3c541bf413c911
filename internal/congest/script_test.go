package congest

// Helpers that write the engine tests' small node programs as drivers.

// nextFunc adapts a function to a Driver.
type nextFunc func(in []Recv) (Request, bool)

func (f nextFunc) Next(in []Recv) (Request, bool) { return f(in) }

// done is a driver that is over at its first Next.
var done = nextFunc(func([]Recv) (Request, bool) { return Request{}, false })

// loop is a script item that runs again after its request completes: it
// receives that request's result and returns its next request, or the
// zero Request to hand the same result on to the script's next item.
type loop func(in []Recv) Request

// script is a node program as a list of items run in turn, each handed
// the result of the script's previous request. An item is a Request,
// issued as is; a func([]Recv) Request, whose zero Request issues nothing
// and moves on with the same result; or a loop. The node is done after
// the last item.
func script(items ...any) (Request, Driver) {
	i := 0
	return Idle(0), nextFunc(func(in []Recv) (Request, bool) {
		for i < len(items) {
			var req Request
			switch it := items[i].(type) {
			case Request:
				req = it
				i++
			case func([]Recv) Request:
				req = it(in)
				i++
			case loop:
				if req = it(in); req.kind == 0 {
					i++
				}
			default:
				panic("script: bad item")
			}
			if req.kind != 0 {
				return req, true
			}
		}
		return Request{}, false
	})
}

// rounds is a node program of k exchange rounds: send(r) returns round
// r's sends and recv(r, in) reads its inbox; either may be nil.
func rounds(k int, send func(r int) []Send, recv func(r int, in []Recv)) (Request, Driver) {
	r := 0
	next := func() Request {
		var out []Send
		if send != nil {
			out = send(r)
		}
		return Exchange(out)
	}
	if k <= 0 {
		return Idle(0), done
	}
	return next(), nextFunc(func(in []Recv) (Request, bool) {
		if recv != nil {
			recv(r, in)
		}
		if r++; r == k {
			return Request{}, false
		}
		return next(), true
	})
}

// toAll returns sends of w on every port of h.
func toAll(h *Host, w Wire) []Send {
	out := make([]Send, h.Degree())
	for p := range out {
		out[p] = Send{Port: p, Wire: w}
	}
	return out
}
