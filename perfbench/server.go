package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"syscall"
	"time"
)

// server is one dsfserve subprocess, driven only through the versioned
// /v1 HTTP API. It runs with default flags apart from -addr and an empty
// -preload.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	logs   bytes.Buffer
	exited chan error
}

// startServer launches dsfserve on a free loopback port and waits until
// /v1/healthz answers.
func startServer(bin string) (*server, error) {
	if bin == "" {
		return nil, fmt.Errorf("no dsfserve binary (pass -dsfserve)")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	s := &server{
		base: "http://" + addr,
		// At most two client connections: the workloads run two closed-loop
		// clients, and set-up runs before them.
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2}},
		exited: make(chan error, 1),
	}
	s.cmd = exec.Command(bin, "-addr", addr, "-preload", "")
	// Kill dsfserve if the benchmark dies before it can stop it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.cmd.Stdout = &s.logs
	s.cmd.Stderr = &s.logs
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start dsfserve: %w", err)
	}
	go func() { s.exited <- s.cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.exited:
			return nil, fmt.Errorf("dsfserve exited at start-up (%v): %s", err, s.logs.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("dsfserve not healthy after 20s: %s", s.logs.String())
		}
	}
}

// pid is the dsfserve process id, for /proc readings.
func (s *server) pid() int { return s.cmd.Process.Pid }

// stop drains dsfserve with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than 30 seconds.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal dsfserve: %w", err)
	}
	select {
	case err := <-s.exited:
		if err != nil {
			return fmt.Errorf("dsfserve exit: %v: %s", err, s.logs.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("dsfserve did not drain within 30s")
	}
}

// post sends a JSON body and decodes a 2xx JSON answer into out. A non-2xx
// status returns an error holding the status and the error envelope.
func (s *server) post(path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func (s *server) statsz() (statsz, error) {
	var st statsz
	resp, err := s.client.Get(s.base + "/v1/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/statsz: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// The /v1 wire format, declared here rather than imported so the benchmark
// depends on the HTTP contract alone.

type solveRequest struct {
	Algorithm string `json:"algorithm,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	NoCert    bool   `json:"nocert,omitempty"`
}

type solveResponse struct {
	Algorithm  string  `json:"algorithm"`
	Weight     int64   `json:"weight"`
	Edges      int     `json:"edges"`
	LowerBound float64 `json:"lower_bound"`
	Certified  bool    `json:"certified"`
	Rounds     int     `json:"rounds"`
	Messages   int64   `json:"messages"`
	Bits       int64   `json:"bits"`
	Cached     bool    `json:"cached"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

func (r solveResponse) answer() answer {
	return answer{Weight: r.Weight, Edges: r.Edges, Rounds: r.Rounds, Messages: r.Messages,
		Bits: r.Bits, LB: r.LowerBound, Certified: r.Certified}
}

type generateRequest struct {
	Name   string `json:"name"`
	Family string `json:"family"`
	N      int    `json:"n"`
	K      int    `json:"k"`
	Seed   int64  `json:"seed"`
}

type demandEvent struct {
	Op string `json:"op"`
	U  int    `json:"u"`
	V  int    `json:"v"`
}

type demandRequest struct {
	Events    []demandEvent `json:"events"`
	Algorithm string        `json:"algorithm,omitempty"`
}

type eventOutcome struct {
	Resolved bool  `json:"resolved"`
	Rounds   int   `json:"rounds"`
	Messages int64 `json:"messages"`
	Weight   int64 `json:"weight"`
}

type demandResponse struct {
	Events    []eventOutcome `json:"events"`
	Weight    int64          `json:"weight"`
	ElapsedMS float64        `json:"elapsed_ms"`
}

type statsz struct {
	Completed        uint64 `json:"completed"`
	Errors           uint64 `json:"errors"`
	Rejected         uint64 `json:"rejected"`
	CacheHits        uint64 `json:"cache_hits"`
	CacheMisses      uint64 `json:"cache_misses"`
	Collapsed        uint64 `json:"collapsed"`
	CacheBytes       int64  `json:"cache_bytes"`
	SolveNs          int64  `json:"solve_ns"`
	DemandUpdates    uint64 `json:"demand_updates"`
	ArenaWarm        uint64 `json:"arena_warm"`
	ArenaCold        uint64 `json:"arena_cold"`
	ArenaWarmSetupNs int64  `json:"arena_warm_setup_ns"`
	ArenaColdSetupNs int64  `json:"arena_cold_setup_ns"`
	Batches          uint64 `json:"batches"`
	BatchedReqs      uint64 `json:"batched_reqs"`
}
