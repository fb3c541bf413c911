package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"steinerforest/internal/chaos"
	"steinerforest/internal/serve"
	"steinerforest/internal/workload"
)

// runChaosSmoke is the robustness CI self-test behind -chaos-smoke. It
// runs three deterministic phases, each against its own in-process
// server over real HTTP:
//
//  1. panic isolation + quarantine: every solve of one target instance
//     panics (injected); each panic must come back as its own 500
//     internal, the instance must quarantine after the configured
//     streak (503 quarantined), and its neighbor instance must keep
//     serving answers bit-identical to a chaos-free reference server.
//  2. deadline-aware admission: a request whose deadline expires while
//     it waits behind a stalled worker must be evicted and answered 504
//     deadline_exceeded without any solver time spent on it.
//  3. cancel storm: clients replay a seed-deterministic cancel schedule;
//     every response must be a well-formed success/cancelled/deadline
//     answer, and after the storm the server must still produce answers
//     bit-identical to the reference.
//
// Any violation exits nonzero; "chaos smoke OK" means all phases held.
func runChaosSmoke(seed int64) int {
	if err := chaosQuarantinePhase(seed); err != nil {
		fmt.Fprintln(os.Stderr, "dsfserve: chaos smoke FAILED (quarantine):", err)
		return 1
	}
	if err := chaosDeadlinePhase(); err != nil {
		fmt.Fprintln(os.Stderr, "dsfserve: chaos smoke FAILED (deadline):", err)
		return 1
	}
	if err := chaosCancelStormPhase(seed); err != nil {
		fmt.Fprintln(os.Stderr, "dsfserve: chaos smoke FAILED (cancel storm):", err)
		return 1
	}
	fmt.Println("chaos smoke OK")
	return 0
}

// chaosServer is one in-process server on an ephemeral loopback port.
type chaosServer struct {
	srv     *serve.Server
	httpSrv *http.Server
	url     string
	names   []string // resident instance names: the families gnp, planted
}

func startChaosServer(cfg serve.Config) (*chaosServer, error) {
	srv := serve.New(cfg)
	names := []string{"gnp", "planted"}
	for _, fam := range names {
		if _, err := srv.GenerateInstance(fam, fam, workload.Params{N: 48, K: 3, MaxW: 64, Seed: 7}); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	return &chaosServer{srv: srv, httpSrv: httpSrv, url: "http://" + ln.Addr().String(), names: names}, nil
}

func (c *chaosServer) stop() {
	c.srv.ShutdownWithTimeout(5 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = c.httpSrv.Shutdown(ctx)
}

// chaosAnswer is one solve's outcome: HTTP status plus whichever body
// shape came back.
type chaosAnswer struct {
	status int
	res    serve.SolveResponse
	errEnv serve.ErrorEnvelope
}

// chaosSolve posts one det/nocert solve with the given seed, optionally
// under a caller context and a millisecond deadline header.
func chaosSolve(ctx context.Context, base, name string, seed int64, deadlineMS int) (chaosAnswer, error) {
	body := fmt.Sprintf(`{"algorithm":"det","seed":%d,"nocert":true}`, seed)
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		fmt.Sprintf("%s/v1/instances/%s/solve", base, name), bytes.NewReader([]byte(body)))
	if err != nil {
		return chaosAnswer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if deadlineMS > 0 {
		req.Header.Set("X-Request-Deadline-Ms", fmt.Sprint(deadlineMS))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return chaosAnswer{}, err
	}
	defer resp.Body.Close()
	ans := chaosAnswer{status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		return ans, json.NewDecoder(resp.Body).Decode(&ans.res)
	}
	return ans, json.NewDecoder(resp.Body).Decode(&ans.errEnv)
}

// sameAnswer compares the observable solver outputs of two 200 answers.
func sameAnswer(a, b serve.SolveResponse) bool {
	return a.Weight == b.Weight && a.Edges == b.Edges &&
		a.Rounds == b.Rounds && a.Messages == b.Messages && a.Bits == b.Bits &&
		a.Algorithm == b.Algorithm
}

func chaosQuarantinePhase(seed int64) error {
	ref, err := startChaosServer(serve.Config{DisableCache: true})
	if err != nil {
		return err
	}
	defer ref.stop()

	// Every slot that solves the gnp instance panics; planted is spared.
	const quarantineAfter = 2
	target, healthy := ref.names[0], ref.names[1]
	inj := chaos.New(chaos.Config{Seed: seed, PanicEvery: 1, PanicTarget: target})
	chs, err := startChaosServer(serve.Config{
		DisableCache:    true,
		QuarantineAfter: quarantineAfter,
		Chaos:           inj,
	})
	if err != nil {
		return err
	}
	defer chs.stop()

	// The target instance panics on every solve: each must be its own
	// 500 internal, and the streak must quarantine it.
	for i := 0; i < quarantineAfter; i++ {
		ans, err := chaosSolve(nil, chs.url, target, int64(100+i), 0)
		if err != nil {
			return err
		}
		if ans.status != http.StatusInternalServerError || ans.errEnv.Error.Code != "internal" {
			return fmt.Errorf("panicking solve %d: got status %d code %q, want 500 internal",
				i, ans.status, ans.errEnv.Error.Code)
		}
	}
	ans, err := chaosSolve(nil, chs.url, target, 200, 0)
	if err != nil {
		return err
	}
	if ans.status != http.StatusServiceUnavailable || ans.errEnv.Error.Code != "quarantined" {
		return fmt.Errorf("post-streak solve: got status %d code %q, want 503 quarantined",
			ans.status, ans.errEnv.Error.Code)
	}

	// The healthy neighbor keeps serving, bit-identical to the
	// chaos-free reference server.
	for _, s := range []int64{301, 302, 303} {
		got, err := chaosSolve(nil, chs.url, healthy, s, 0)
		if err != nil {
			return err
		}
		want, err := chaosSolve(nil, ref.url, ref.names[1], s, 0)
		if err != nil {
			return err
		}
		if got.status != http.StatusOK || want.status != http.StatusOK {
			return fmt.Errorf("healthy instance seed %d: status %d (reference %d), want 200/200",
				s, got.status, want.status)
		}
		if !sameAnswer(got.res, want.res) {
			return fmt.Errorf("healthy instance seed %d diverged beside quarantined neighbor: %+v vs %+v",
				s, got.res, want.res)
		}
	}

	st := chs.srv.Statsz()
	if st.SolverPanics < uint64(quarantineAfter) || st.Quarantined != 1 {
		return fmt.Errorf("statsz: solver_panics=%d quarantined=%d, want >=%d and 1",
			st.SolverPanics, st.Quarantined, quarantineAfter)
	}
	fmt.Printf("chaos smoke: quarantine phase ok (%d panics isolated, %q quarantined, %q identical to reference)\n",
		st.SolverPanics, target, healthy)
	return nil
}

func chaosDeadlinePhase() error {
	// Every solve stalls 250ms and a blocker occupies the only worker, so
	// the 10ms deadline expires while the request is still queued — the
	// eviction path, deterministically.
	inj := chaos.New(chaos.Config{Seed: 1, StallEvery: 1, Stall: 250 * time.Millisecond})
	chs, err := startChaosServer(serve.Config{Workers: 1, DisableCache: true, Chaos: inj})
	if err != nil {
		return err
	}
	defer chs.stop()
	blocker := make(chan error, 1)
	go func() {
		_, err := chaosSolve(nil, chs.url, chs.names[0], 2, 0)
		blocker <- err
	}()
	for i := 0; chs.srv.Statsz().Accepted < 1; i++ {
		if i == 1000 {
			return fmt.Errorf("blocker solve never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ans, err := chaosSolve(nil, chs.url, chs.names[0], 1, 10)
	if err != nil {
		return err
	}
	if ans.status != http.StatusGatewayTimeout || ans.errEnv.Error.Code != "deadline_exceeded" {
		return fmt.Errorf("expired request: got status %d code %q, want 504 deadline_exceeded",
			ans.status, ans.errEnv.Error.Code)
	}
	if err := <-blocker; err != nil {
		return fmt.Errorf("blocker solve: %w", err)
	}
	// The worker evicts the expired job right after the blocker.
	deadlineSeen := false
	for i := 0; i < 40 && !deadlineSeen; i++ {
		st := chs.srv.Statsz()
		deadlineSeen = st.DeadlineExceeded >= 1 && st.Evicted >= 1
		if !deadlineSeen {
			time.Sleep(25 * time.Millisecond)
		}
	}
	if !deadlineSeen {
		st := chs.srv.Statsz()
		return fmt.Errorf("statsz: deadline_exceeded=%d evicted=%d, want both >=1", st.DeadlineExceeded, st.Evicted)
	}
	fmt.Println("chaos smoke: deadline phase ok (queued request evicted, 504 deadline_exceeded)")
	return nil
}

func chaosCancelStormPhase(seed int64) error {
	ref, err := startChaosServer(serve.Config{DisableCache: true})
	if err != nil {
		return err
	}
	defer ref.stop()
	chs, err := startChaosServer(serve.Config{DisableCache: true})
	if err != nil {
		return err
	}
	defer chs.stop()

	const storm = 24
	delays := chaos.CancelDelays(seed, storm, 0, 15*time.Millisecond)
	var wg sync.WaitGroup
	statuses := make([]int, storm)
	codes := make([]string, storm)
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(delays[i], cancel)
			defer timer.Stop()
			defer cancel()
			ans, err := chaosSolve(ctx, chs.url, chs.names[i%2], int64(1000+i), 0)
			if err != nil {
				// The client's own transport aborting mid-request is the
				// expected shape of a cancelled call.
				statuses[i], codes[i] = -1, "client_cancelled"
				return
			}
			statuses[i], codes[i] = ans.status, ans.errEnv.Error.Code
		}(i)
	}
	wg.Wait()

	for i := 0; i < storm; i++ {
		switch {
		case statuses[i] == -1 || statuses[i] == http.StatusOK:
		case statuses[i] == http.StatusServiceUnavailable && codes[i] == "cancelled":
		case statuses[i] == http.StatusTooManyRequests:
		default:
			return fmt.Errorf("storm request %d: unexpected status %d code %q", i, statuses[i], codes[i])
		}
	}

	// The server must still answer, bit-identically to the reference.
	got, err := chaosSolve(nil, chs.url, chs.names[0], 5000, 0)
	if err != nil {
		return fmt.Errorf("post-storm solve: %w", err)
	}
	want, err := chaosSolve(nil, ref.url, ref.names[0], 5000, 0)
	if err != nil {
		return err
	}
	if got.status != http.StatusOK || want.status != http.StatusOK || !sameAnswer(got.res, want.res) {
		return fmt.Errorf("post-storm solve diverged: status %d %+v vs status %d %+v",
			got.status, got.res, want.status, want.res)
	}
	fmt.Printf("chaos smoke: cancel storm phase ok (%d cancellations replayed, post-storm answers identical)\n", storm)
	return nil
}
