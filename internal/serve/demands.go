package serve

import (
	"fmt"
	"sort"

	steinerforest "steinerforest"
	"steinerforest/internal/steiner"
	"steinerforest/internal/workload"
)

// demandsFromInstance recovers a pair multiset whose canonical DSF-IC
// conversion has exactly the registered instance's components: star
// pairs from each component's smallest member. This seeds the live
// demand state of instances registered with explicit labels.
func demandsFromInstance(ins *steiner.Instance) (*steinerforest.DemandSet, error) {
	ds := steinerforest.NewDemandSet(ins.G)
	comps := ins.Components()
	labels := make([]int, 0, len(comps))
	for l := range comps {
		labels = append(labels, l)
	}
	sort.Ints(labels)
	for _, l := range labels {
		members := comps[l]
		for _, v := range members[1:] {
			if err := ds.Add(members[0], v); err != nil {
				return nil, err
			}
		}
	}
	return ds, nil
}

// updateJob is the payload of a demand-update request riding the
// admission queue: it shares overload semantics (429/503) with solves.
// A worker applies it under the instance's update lock and publishes the
// result with one entry swap, so no solver run ever observes a
// half-applied update.
type updateJob struct {
	name   string
	events []workload.TimelineEvent
	spec   steinerforest.Spec
	done   chan updateAnswer // buffered(1): apply never blocks on a gone client
}

type updateAnswer struct {
	res  *DemandUpdateResponse
	err  error
	code string // error envelope code when err != nil
}

func (u *updateJob) fail(code string, format string, args ...any) {
	u.done <- updateAnswer{err: fmt.Errorf(format, args...), code: code}
}

// applyDemandUpdate runs one admitted update job on a worker. It holds
// the instance's update lock throughout, so updates on one instance
// never overlap and each starts from the entry the previous one swapped
// in (a worker waiting for the lock is held meanwhile); updates on
// different instances run concurrently (the policies are stateless and
// the arena pool is safe for concurrent use). The whole event list is
// validated against a scratch copy first (an update applies atomically
// or not at all), then the policy steps through the events with the
// entry's warm arena pool, and finally a replacement entry — new
// cumulative instance, updated standing forest, fresh empty result
// cache — is swapped in under the instance map lock. Cached results for the pre-update demand set die with
// the orphaned old entry: a post-update solve can only miss and re-run,
// which is the cache-invalidation correctness contract the pinning test
// holds.
func (s *Server) applyDemandUpdate(u *updateJob) {
	if s.policyErr != nil {
		u.fail("internal", "policy %q: %v", s.cfg.Policy, s.policyErr)
		return
	}
	e := s.lookup(u.name)
	if e == nil {
		u.fail("not_found", "no resident instance %q (see GET /v1/instances)", u.name)
		return
	}
	e.state.update.Lock()
	defer e.state.update.Unlock()
	// Instances are never unregistered, so the re-read is the entry the
	// last update on this instance swapped in.
	e = s.lookup(u.name)

	ds := e.demands.Clone()
	for i, ev := range u.events {
		if err := ds.Apply(ev); err != nil {
			u.fail("bad_request", "event %d: %v", i, err)
			return
		}
	}

	runSpec := u.spec
	runSpec.NoCertificate = true
	runSpec.Arena = e.pool
	resp := &DemandUpdateResponse{Instance: u.name, Policy: s.policy.Name()}

	standing := e.standing
	if standing == nil && e.demands.Len() > 0 {
		// First update on this instance: bootstrap the standing forest
		// with a full solve of the pre-update demands, so repair and
		// every-k have something to patch.
		res, err := steinerforest.Solve(e.demands.Instance(), runSpec)
		if err != nil {
			u.fail("internal", "bootstrap solve: %v", err)
			return
		}
		standing = res.Solution
		resp.Bootstrapped = true
		if res.Stats != nil {
			resp.BootstrapRounds = res.Stats.Rounds
		}
	}

	replay := e.demands.Clone()
	for i, ev := range u.events {
		if err := replay.Apply(ev); err != nil {
			u.fail("internal", "validated event %d failed to apply: %v", i, err)
			return
		}
		cum := replay.Instance()
		out, err := s.policy.Step(steinerforest.PolicyStep{
			Ins: cum, Standing: standing, Event: ev, Index: e.events + i, Spec: runSpec,
		})
		if err != nil {
			u.fail("internal", "policy %q at event %d: %v", s.policy.Name(), i, err)
			return
		}
		if out.Forest == nil {
			u.fail("internal", "policy %q returned no forest at event %d", s.policy.Name(), i)
			return
		}
		if err := steinerforest.Verify(cum, out.Forest); err != nil {
			u.fail("internal", "policy %q infeasible after event %d: %v", s.policy.Name(), i, err)
			return
		}
		standing = out.Forest
		op := "add"
		if ev.Op == workload.EventRemove {
			op = "remove"
		}
		eo := DemandEventOutcome{
			Op: op, U: ev.U, V: ev.V,
			Resolved: out.Resolved, Patched: out.Patched,
			Rounds: out.Rounds, Messages: out.Messages,
			Weight: standing.Weight(cum.G),
		}
		resp.Events = append(resp.Events, eo)
	}

	newIns := replay.Instance()
	ne := &entry{
		info: InstanceInfo{
			Name: u.name, Nodes: newIns.G.N(), Edges: newIns.G.M(),
			K: newIns.NumComponents(), Terminals: newIns.NumTerminals(),
			Family: e.info.Family, Pairs: replay.Len(), Events: e.events + len(u.events),
		},
		ins: newIns, pool: e.pool, state: e.state,
		demands: replay, standing: standing, events: e.events + len(u.events),
	}
	if !s.cfg.DisableCache {
		ne.cache = newSolveCache(s.cfg.CacheBytes)
	}
	s.instMu.Lock()
	s.instances[u.name] = ne
	s.instMu.Unlock()

	resp.K = ne.info.K
	resp.Terminals = ne.info.Terminals
	resp.Pairs = ne.info.Pairs
	resp.TimelineEvents = ne.events
	resp.Weight = standing.Weight(newIns.G)
	s.metrics.incDemandUpdate(len(u.events))
	u.done <- updateAnswer{res: resp}
}
