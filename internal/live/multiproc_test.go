package live

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"testing"
	"time"

	"disttrain/internal/core"
	"disttrain/internal/fault"
)

// Multi-process crash/restart exercise: the test binary re-execs itself as
// worker processes (the standard TestMain role-dispatch pattern), so a
// scheduled death is a REAL process exit and the recovery is a REAL fresh
// process entering through RunWorkerRejoin — the deployment story CI could
// not previously cover with in-process restarts alone.
const (
	mpRoleEnv  = "DISTTRAIN_MP_ROLE" // "" = run tests; worker|rejoin = child roles
	mpCoordEnv = "DISTTRAIN_MP_COORD"
	mpCkptEnv  = "DISTTRAIN_MP_CKPT"

	// mpDeathExit is the child's exit code at a scheduled death
	// (ErrScheduledDeath under WithExitOnDeath) — distinct from success (0)
	// and failure (1) so the parent can tell the three apart.
	mpDeathExit = 42
)

func TestMain(m *testing.M) {
	switch os.Getenv(mpRoleEnv) {
	case "":
		os.Exit(m.Run())
	case "worker":
		os.Exit(mpChildMain(false))
	case "rejoin":
		os.Exit(mpChildMain(true))
	default:
		fmt.Fprintln(os.Stderr, "unknown", mpRoleEnv)
		os.Exit(1)
	}
}

// mpConfig is the shared experiment both the parent's coordinator and the
// child processes derive independently (it must fingerprint identically):
// 4-worker elastic BSP with worker 1 crashing after iteration 3 and
// restarting ~2 iterations later.
func mpConfig() core.Config {
	cfg := liveConfig(core.BSP, 4, 10, 77)
	cfg.Elastic = true
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Crash, AtIter: 3, Worker: 1, Restart: 0.3},
	}}
	return cfg
}

// mpChildMain is the re-exec'd worker process. First incarnations run under
// WithExitOnDeath, so the rank with the scheduled crash terminates the
// whole process at its death; the relaunched incarnation enters through
// RunWorkerRejoin with the dead rank.
func mpChildMain(rejoin bool) int {
	cfg := mpConfig()
	coord, ckptDir := os.Getenv(mpCoordEnv), os.Getenv(mpCkptEnv)
	var err error
	if rejoin {
		err = RunWorkerRejoin(cfg, coord, 1, WithCheckpoints(ckptDir, 1))
	} else {
		err = RunWorker(cfg, coord, "127.0.0.1:0",
			WithCheckpoints(ckptDir, 1), WithExitOnDeath())
	}
	if errors.Is(err, ErrScheduledDeath) {
		return mpDeathExit
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mp child:", err)
		return 1
	}
	return 0
}

// TestMultiProcessRejoin kills a real worker process at a scheduled death
// and re-admits a real replacement process via RunWorkerRejoin, asserting
// the coordinator's result reflects the death, the rejoin, and the
// checkpoint restore.
func TestMultiProcessRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg := mpConfig()
	if err := Validate(&cfg); err != nil {
		t.Fatal(err)
	}
	ckptDir := t.TempDir()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	coordAddr := ln.Addr().String()

	type coordOut struct {
		res *Result
		err error
	}
	coordCh := make(chan coordOut, 1)
	go func() {
		res, err := coordinate(&cfg, ln, buildOptions(&cfg, []Option{WithCheckpoints(ckptDir, 1)}, 1))
		coordCh <- coordOut{res, err}
	}()

	spawn := func(role string) (*exec.Cmd, error) {
		cmd := exec.Command(exe, "-test.run=^$")
		cmd.Env = append(os.Environ(),
			mpRoleEnv+"="+role, mpCoordEnv+"="+coordAddr, mpCkptEnv+"="+ckptDir)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		return cmd, cmd.Start()
	}

	exits := make(chan int, 8)
	launch := func(role string) {
		cmd, err := spawn(role)
		if err != nil {
			t.Errorf("spawn %s: %v", role, err)
			exits <- -1
			return
		}
		go func() {
			if err := cmd.Wait(); err != nil {
				var ee *exec.ExitError
				if errors.As(err, &ee) {
					exits <- ee.ExitCode()
					return
				}
				t.Errorf("wait %s: %v", role, err)
				exits <- -1
				return
			}
			exits <- 0
		}()
	}
	for i := 0; i < cfg.Workers; i++ {
		launch("worker")
	}

	// One process — whichever was assigned rank 1 — must die with the
	// scheduled-death exit code; relaunch that rank as a fresh process.
	// Everything else must exit clean: 4 first incarnations + 1 rejoin.
	deaths, clean, relaunched := 0, 0, false
	deadline := time.After(120 * time.Second)
	for deaths+clean < cfg.Workers+1 {
		select {
		case code := <-exits:
			switch code {
			case mpDeathExit:
				deaths++
				if !relaunched {
					relaunched = true
					launch("rejoin")
				}
			case 0:
				clean++
			default:
				t.Fatalf("worker process exited with unexpected code %d", code)
			}
		case <-deadline:
			t.Fatalf("timed out waiting for worker processes (deaths=%d clean=%d)", deaths, clean)
		}
	}
	if deaths != 1 {
		t.Fatalf("expected exactly 1 scheduled process death, got %d", deaths)
	}

	out := <-coordCh
	if out.err != nil {
		t.Fatalf("coordinator: %v", out.err)
	}
	res := out.res
	if res.Deaths < 1 || res.Rejoins < 1 {
		t.Fatalf("chaos counters: deaths=%d rejoins=%d, want >=1 each", res.Deaths, res.Rejoins)
	}
	if res.Restores < 1 {
		t.Fatalf("rejoined process restored no checkpoint (restores=%d)", res.Restores)
	}
	requireSimIters(t, simRun(t, cfg), res)
}
