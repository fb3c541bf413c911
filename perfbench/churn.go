package main

import (
	"fmt"
	"time"

	sf "steinerforest"
	"steinerforest/internal/moat"
	"steinerforest/internal/steiner"
	"steinerforest/internal/workload"
)

// serve-churn: two closed-loop clients, each owning churnInstances
// roadmesh instances, repeat one cycle: a POST
// /v1/instances/{name}/demands carrying the next event of that instance's
// churn-roadmesh timeline, then churnReads certified det solves of the
// new demand set. The update swaps in a fresh cache, so the first read
// misses and the rest hit. A client's cycle i runs on its instance
// i % churnInstances: each timeline stays short (its demand set grows by
// ~0.2 pairs per event), and a run averages eight timelines. The server
// keeps its default full policy: every write re-solves on the dispatcher
// goroutine and runs Verify.
const (
	churnN         = 1024
	churnInstances = 4
	churnRate      = 3.5 // cycles per client per nominal second
	churnReads     = 4
)

// churnInstance is one resident instance with its timeline and a local
// replica of the demand set the server holds for it.
type churnInstance struct {
	name    string
	params  workload.Params
	initial []demandEvent // the timeline's initial pairs, sent at set-up
	events  []workload.TimelineEvent
	next    int // the first timeline event not yet applied
	demands *sf.DemandSet
}

func (c *churnInstance) path(op string) string { return "/v1/instances/" + c.name + "/" + op }

// Each timeline's demand states must average between churnPhaseLo and
// churnPhaseHi moat-growing merge phases (the det solver runs one phase
// per oracle phase), none above churnPhaseMax. Unfiltered, the mean ranges
// over 1.0-3.8 by seed, a run's rounds per op over ±12%, and the rare
// 5- and 7-phase states set the latency tail; about a third of the
// timelines qualify.
const (
	churnPhaseLo  = 1.2
	churnPhaseHi  = 2.0
	churnPhaseMax = 3
)

// newChurnInstance returns the first churn-roadmesh timeline, over the
// family seeds derived from (seed, client, slot), whose phase mean lies in
// the band. The instance is registered as the roadmesh family with one
// pair of its own (the graph does not depend on K) and keeps that pair:
// its demand set is the registered pair plus the timeline's.
func newChurnInstance(seed int64, client, slot, events int) (*churnInstance, error) {
	for attempt := 0; attempt < 64; attempt++ {
		ci, err := churnCandidate(familySeed(seed, 300+16*client+slot, attempt), client, slot, events)
		if err != nil || ci != nil {
			return ci, err
		}
	}
	return nil, fmt.Errorf("no churn timeline in the phase band for seed %d client %d slot %d", seed, client, slot)
}

// churnCandidate generates one timeline and returns it as an instance, or
// nil when its phase mean falls outside the band.
func churnCandidate(famSeed int64, client, slot, events int) (*churnInstance, error) {
	p := workload.Params{N: churnN, K: 1, Seed: famSeed}
	gt, err := workload.GenerateTimeline("churn-roadmesh", workload.TimelineParams{Params: p, Events: events})
	if err != nil {
		return nil, err
	}
	base, err := workload.Generate("roadmesh", p)
	if err != nil {
		return nil, err
	}
	g := gt.Timeline.G
	g.Freeze()
	ds := sf.NewDemandSet(g)
	for _, members := range base.Instance.Components() {
		for _, v := range members[1:] {
			if err := ds.Add(members[0], v); err != nil {
				return nil, err
			}
		}
	}
	ci := &churnInstance{name: fmt.Sprintf("churn-%d-%d", client, slot), params: p,
		events: gt.Timeline.Events, demands: ds}
	for _, pr := range gt.Timeline.Initial {
		if err := ds.Add(pr[0], pr[1]); err != nil {
			return nil, err
		}
		ci.initial = append(ci.initial, demandEvent{Op: "add", U: pr[0], V: pr[1]})
	}

	replay := ds.Clone()
	phases := 0
	for i, ev := range ci.events {
		if err := replay.Apply(ev); err != nil {
			return nil, err
		}
		oracle, err := moat.SolveAKR(replay.Instance())
		if err != nil {
			return nil, err
		}
		phases += oracle.Phases
		// Every remaining state costs at least one phase.
		if oracle.Phases > churnPhaseMax || float64(phases+len(ci.events)-1-i) > churnPhaseHi*float64(len(ci.events)) {
			return nil, nil
		}
	}
	if float64(phases) < churnPhaseLo*float64(len(ci.events)) {
		return nil, nil
	}
	return ci, nil
}

// setupChurn is one set-up: timeline generation, a fresh dsfserve, the
// roadmesh registrations, and as the warm-up one demand update per
// instance adding the timeline's initial pairs (its bootstrap solve and
// re-solve warm the instance's arena pool).
func setupChurn(cfg config, cycles int) (*serveRun, [][]*churnInstance, error) {
	start := time.Now()
	perInstance := (cycles + churnInstances - 1) / churnInstances
	clients := make([][]*churnInstance, 2)
	for c := range clients {
		for j := 0; j < churnInstances; j++ {
			ci, err := newChurnInstance(cfg.seed, c, j, perInstance)
			if err != nil {
				return nil, nil, err
			}
			clients[c] = append(clients[c], ci)
		}
	}
	gen := time.Since(start)

	srv, err := startServer(cfg.dsfserve)
	if err != nil {
		return nil, nil, err
	}
	run := &serveRun{srv: srv, genMs: ms(gen)}
	reg := time.Now()
	for _, insts := range clients {
		for _, ci := range insts {
			var info map[string]any
			req := generateRequest{Name: ci.name, Family: "roadmesh", N: ci.params.N, K: ci.params.K, Seed: ci.params.Seed}
			if err := srv.post("/v1/instances", req, &info); err != nil {
				srv.stop()
				return nil, nil, err
			}
		}
	}
	run.regMs = ms(time.Since(reg))
	warm := time.Now()
	for _, insts := range clients {
		for _, ci := range insts {
			var resp demandResponse
			if err := srv.post(ci.path("demands"), demandRequest{Events: ci.initial}, &resp); err != nil {
				srv.stop()
				return nil, nil, fmt.Errorf("initial demand update: %w", err)
			}
		}
	}
	run.warmMs = ms(time.Since(warm))
	run.setupS = time.Since(start).Seconds()
	return run, clients, nil
}

// churnCycle is one write and its reads, on one instance.
type churnCycle struct {
	inst *churnInstance
	ev   workload.TimelineEvent
	ops  []*serveOp // the write, then the reads
}

// churnLists builds cycles [from, to) of every client: cycle i runs on the
// client's instance i % churnInstances with that instance's next pending
// timeline event.
func churnLists(clients [][]*churnInstance, from, to int) ([][]*serveOp, [][]*churnCycle) {
	lists := make([][]*serveOp, len(clients))
	cycles := make([][]*churnCycle, len(clients))
	for c, insts := range clients {
		pending := map[*churnInstance]int{}
		for i := from; i < to; i++ {
			ci := insts[i%len(insts)]
			ev := ci.events[ci.next+pending[ci]]
			pending[ci]++
			op := "add"
			if ev.Op == workload.EventRemove {
				op = "remove"
			}
			cy := &churnCycle{inst: ci, ev: ev, ops: []*serveOp{{
				path:  ci.path("demands"),
				body:  demandRequest{Events: []demandEvent{{Op: op, U: ev.U, V: ev.V}}},
				write: true,
			}}}
			for r := 0; r < churnReads; r++ {
				cy.ops = append(cy.ops, &serveOp{path: ci.path("solve"), body: solveRequest{Algorithm: "det"}, wantHit: r > 0})
			}
			lists[c] = append(lists[c], cy.ops...)
			cycles[c] = append(cycles[c], cy)
		}
	}
	return lists, cycles
}

// resolveCycles applies, per client and in order, the events of the cycles
// whose write was sent to the instances' demand replicas, and gives each
// of those cycles' ops its reference job: the standalone certified det
// Solve of the demand set after the event. A client's unsent cycles are a
// suffix (it stopped at the time limit), so the replicas stay in step with
// the server.
func resolveCycles(cycles [][]*churnCycle) error {
	for _, cs := range cycles {
		for _, cy := range cs {
			if !cy.ops[0].sent {
				break
			}
			ci := cy.inst
			if err := ci.demands.Apply(cy.ev); err != nil {
				return fmt.Errorf("%s event %d: %w", ci.name, ci.next, err)
			}
			ci.next++
			cum := ci.demands.Instance()
			job := &refJob{ins: cum, spec: sf.Spec{Algorithm: "det"}, akr: &akrCell{ins: cum}, algo: "det"}
			for _, op := range cy.ops {
				op.ref = job
			}
		}
	}
	return nil
}

func runServeChurn(cfg config) (*report, error) {
	rep := newReport()
	cycles := sized(cfg.seconds, churnRate)
	var clients [][]*churnInstance
	run, err := setupServe(func() (*serveRun, error) {
		r, cs, err := setupChurn(cfg, cycles)
		clients = cs
		return r, err
	})
	if err != nil {
		return nil, err
	}

	bounds := [][2]int{{0, cycles}}
	if cfg.trace {
		bounds = [][2]int{{0, cycles / 2}, {cycles / 2, cycles}}
	}
	limit := passLimit(cfg, len(bounds))
	var passes [][][]*serveOp
	var mps []*measuredPass
	for _, b := range bounds {
		lists, cys := churnLists(clients, b[0], b[1])
		mp, err := runPass(run.srv, lists, limit)
		if err == nil {
			err = resolveCycles(cys)
		}
		if err != nil {
			run.srv.stop()
			return nil, err
		}
		passes = append(passes, lists)
		mps = append(mps, mp)
	}
	if err := run.srv.stop(); err != nil {
		return nil, err
	}

	computeRefs(sentJobs(passes...))
	stats := checkPasses(rep, passes, mps)
	stats[0].fillEndToEnd(rep, run.setupS, mps[0].peakMB)
	if !cfg.trace {
		return rep, nil
	}
	var finals []*steiner.Instance
	for _, insts := range clients {
		finals = append(finals, insts[0].demands.Instance())
	}
	return rep, fillTraced(rep, run, finals, mps, stats)
}
