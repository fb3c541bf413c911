package main

import (
	"fmt"
	"math/rand"
	"time"

	sf "steinerforest"
	"steinerforest/internal/steiner"
	"steinerforest/internal/workload"
)

// serve-zipf: two closed-loop clients send certified solves, Zipf-skewed
// over a catalog of algorithm x seed keys, each client on its own resident
// instance (client 0 planted, client 1 single-phase roadmesh), so cache
// outcomes are fixed by the request lists: every missEvery-th request
// introduces the client's next catalog key (a miss), the others draw a
// Zipf rank over the keys it has introduced (hits).
const (
	zipfPlantedN   = 400
	zipfPlantedK   = 3
	zipfRoadN      = 1024
	zipfRoadK      = 4
	zipfRate       = 12.0 // requests per client per nominal second
	zipfExponent   = 1.2
	missEvery      = 5
	tracedSeedBase = 1 << 20 // the traced pass's catalog seeds start past the untraced pass's
)

var zipfAlgos = []string{"det", "rand", "rounded"}

// zipfClient is one client's resident instance, regenerated locally from
// the same family parameters the server generates it from.
type zipfClient struct {
	name   string
	family string
	params workload.Params
	ins    *steiner.Instance
	akr    *akrCell
}

func (c *zipfClient) solvePath() string { return "/v1/instances/" + c.name + "/solve" }

// zipfInstances generates both clients' instances and returns the time
// spent generating them.
func zipfInstances(seed int64) ([]*zipfClient, time.Duration, error) {
	start := time.Now()
	p := workload.Params{N: zipfPlantedN, K: zipfPlantedK, Seed: familySeed(seed, 100, 0)}
	gen, err := workload.Generate("planted", p)
	if err != nil {
		return nil, 0, err
	}
	gen.Instance.G.Freeze()
	spent := time.Since(start)
	road, rp, roadSpent, err := singlePhase("roadmesh", zipfRoadN, zipfRoadK, seed, 101)
	if err != nil {
		return nil, 0, err
	}
	return []*zipfClient{
		{name: "zipf-a", family: "planted", params: p, ins: gen.Instance, akr: &akrCell{ins: gen.Instance}},
		{name: "zipf-b", family: "roadmesh", params: rp, ins: road, akr: &akrCell{ins: road}},
	}, spent + roadSpent, nil
}

// setupZipf is one set-up: instance generation, a fresh dsfserve, the
// POST /v1/instances registrations, and a warm-up pass of one uncertified
// solve per algorithm and instance (outside the certified catalog).
func setupZipf(cfg config) (*serveRun, []*zipfClient, error) {
	start := time.Now()
	clients, gen, err := zipfInstances(cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	srv, err := startServer(cfg.dsfserve)
	if err != nil {
		return nil, nil, err
	}
	run := &serveRun{srv: srv, genMs: ms(gen)}
	reg := time.Now()
	for _, c := range clients {
		var info map[string]any
		req := generateRequest{Name: c.name, Family: c.family, N: c.params.N, K: c.params.K, Seed: c.params.Seed}
		if err := srv.post("/v1/instances", req, &info); err != nil {
			srv.stop()
			return nil, nil, err
		}
	}
	run.regMs = ms(time.Since(reg))
	warm := time.Now()
	for _, c := range clients {
		for _, a := range zipfAlgos {
			var resp solveResponse
			if err := srv.post(c.solvePath(), solveRequest{Algorithm: a, NoCert: true}, &resp); err != nil {
				srv.stop()
				return nil, nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	run.warmMs = ms(time.Since(warm))
	run.setupS = time.Since(start).Seconds()
	return run, clients, nil
}

type catalogKey struct {
	client int
	algo   string
	seed   int64
}

// zipfLists builds each client's request list of n solves. Catalog key j
// is algorithm zipfAlgos[j%3] with seed seedBase+j/3+1; refs collects one
// reference job per distinct key.
func zipfLists(seed int64, clients []*zipfClient, n int, seedBase int64, refs map[catalogKey]*refJob) [][]*serveOp {
	lists := make([][]*serveOp, len(clients))
	for ci, c := range clients {
		rng := rand.New(rand.NewSource(familySeed(seed, 200+ci, int(seedBase>>20))))
		introduced := 0
		for i := 0; i < n; i++ {
			var key int
			if i%missEvery == 0 {
				key = introduced
				introduced++
			} else {
				key = int(rand.NewZipf(rng, zipfExponent, 1, uint64(introduced-1)).Uint64())
			}
			k := catalogKey{ci, zipfAlgos[key%len(zipfAlgos)], seedBase + int64(key/len(zipfAlgos)) + 1}
			job := refs[k]
			if job == nil {
				job = &refJob{ins: c.ins, spec: sf.Spec{Algorithm: k.algo, Seed: k.seed}, akr: c.akr, algo: k.algo}
				refs[k] = job
			}
			lists[ci] = append(lists[ci], &serveOp{
				path:    c.solvePath(),
				body:    solveRequest{Algorithm: k.algo, Seed: k.seed},
				wantHit: i%missEvery != 0,
				ref:     job,
			})
		}
	}
	return lists
}

func runServeZipf(cfg config) (*report, error) {
	rep := newReport()
	var clients []*zipfClient
	run, err := setupServe(func() (*serveRun, error) {
		r, cs, err := setupZipf(cfg)
		clients = cs
		return r, err
	})
	if err != nil {
		return nil, err
	}

	n := sized(cfg.seconds, zipfRate)
	refs := map[catalogKey]*refJob{}
	var passes [][][]*serveOp
	if cfg.trace {
		passes = [][][]*serveOp{
			zipfLists(cfg.seed, clients, n/2, 0, refs),
			zipfLists(cfg.seed, clients, n/2, tracedSeedBase, refs),
		}
	} else {
		passes = [][][]*serveOp{zipfLists(cfg.seed, clients, n, 0, refs)}
	}
	limit := passLimit(cfg, len(passes))
	var mps []*measuredPass
	for _, lists := range passes {
		mp, err := runPass(run.srv, lists, limit)
		if err != nil {
			run.srv.stop()
			return nil, err
		}
		mps = append(mps, mp)
	}
	if err := run.srv.stop(); err != nil {
		return nil, err
	}

	computeRefs(sentJobs(passes...))
	stats := checkPasses(rep, passes, mps)
	stats[0].fillEndToEnd(rep, run.setupS, mps[0].peakMB)
	for _, c := range clients {
		rep.note("moat.SolveAKR on %s (%s n=%d): %.3f ms", c.name, c.family, c.ins.G.N(), c.akr.ms)
	}
	if !cfg.trace {
		return rep, nil
	}
	return rep, fillTraced(rep, run, []*steiner.Instance{clients[0].ins, clients[1].ins}, mps, stats)
}
