package dist

import "steinerforest/internal/congest"

// stage starts one step of a test program on the node's tree: a
// primitive's start function, or any driver. A nil Driver means the stage
// did its work at once, taking no round.
type stage func(h *congest.Host, tr *Tree) (congest.Request, congest.Driver)

// onTree is a node program that builds the node's BFS tree and then runs
// stages on it in turn, each starting once the previous is done.
func onTree(stages ...stage) func(h *congest.Host) (congest.Request, congest.Driver) {
	return func(h *congest.Host) (congest.Request, congest.Driver) {
		tr := new(Tree)
		fs := []func() (congest.Request, congest.Driver){
			func() (congest.Request, congest.Driver) { return StartBFS(h, tr) },
		}
		for _, st := range stages {
			fs = append(fs, func() (congest.Request, congest.Driver) { return st(h, tr) })
		}
		return congest.Chain(fs...)
	}
}

// then is a stage that runs f and takes no round.
func then(f func(h *congest.Host, tr *Tree)) stage {
	return func(h *congest.Host, tr *Tree) (congest.Request, congest.Driver) {
		f(h, tr)
		return congest.Request{}, nil
	}
}
