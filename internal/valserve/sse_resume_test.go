package valserve

import (
	"context"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fedshap"
)

// TestSSEResumeAcrossRestart: a WatchJob client holding a Last-Event-ID
// from the daemon's previous life must keep working across a restart.
// The event hub seeds each life's sequence counter from its creation
// time, so the new life's ids are strictly above every id the old life
// issued — a resuming client's stale Last-Event-ID therefore must not
// filter (drop) the new life's progress events, and the client must see
// the recovered job run to completion exactly once.
func TestSSEResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "jobs.jsonl")
	cache := filepath.Join(dir, "cache")

	newManager := func() *Manager {
		t.Helper()
		m, err := NewManager(Config{
			Workers:     1,
			CacheDir:    cache,
			JournalPath: journal,
			// Slow enough that the recovered job is still running when the
			// watcher's reconnect lands (WatchJob backs off 250ms between
			// attempts).
			BuildProblem: gameBuilder(50*time.Millisecond, nil),
			// Pinned: the default pool is GOMAXPROCS wide, and on eight
			// cores the recovered job would finish inside that back-off.
			EvalWorkers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// Life A on a fixed port the restart will rebind.
	mA := newManager()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srvA := &http.Server{Handler: NewHandler(mA)}
	go srvA.Serve(ln)

	client := fedshap.NewServiceClient("http://" + addr)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := client.Submit(ctx, fedshap.JobRequest{N: 4, Algorithm: "ipss", Gamma: 16})
	if err != nil {
		t.Fatal(err)
	}

	// The watcher logs every event with the daemon life it arrived in.
	var mu sync.Mutex
	var lifeB bool
	type obsEvent struct {
		typ   string
		lifeB bool
	}
	var events []obsEvent
	watchDone := make(chan struct{})
	var final *fedshap.JobStatus
	var watchErr error
	go func() {
		defer close(watchDone)
		final, watchErr = client.WatchJob(ctx, st.ID, func(event string, _ *fedshap.JobStatus) {
			mu.Lock()
			events = append(events, obsEvent{typ: event, lifeB: lifeB})
			mu.Unlock()
		})
	}()

	// Let the job make visible progress in life A so the watcher holds a
	// real Last-Event-ID from this hub epoch.
	waitState(t, mA, st.ID, func(s *fedshap.JobStatus) bool { return s.FreshEvals >= 2 })

	// Restart: kill the HTTP server first so the watcher's stream breaks
	// before Close's shutdown-cancel transition is published (a live
	// stream would hand the client a spurious "cancelled" terminal), then
	// close the manager — which journals the interrupted job as queued —
	// and bring up life B over the same journal, cache and address.
	srvA.Close()
	if err := mA.Close(); err != nil {
		t.Fatal(err)
	}
	mB := newManager()
	defer mB.Close()
	var ln2 net.Listener
	for deadline := time.Now().Add(5 * time.Second); ; {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srvB := &http.Server{Handler: NewHandler(mB)}
	defer srvB.Close()
	mu.Lock()
	lifeB = true
	mu.Unlock()
	go srvB.Serve(ln2)

	<-watchDone
	if watchErr != nil {
		t.Fatalf("WatchJob did not survive the restart: %v", watchErr)
	}
	if final == nil || final.State != fedshap.JobDone {
		t.Fatalf("final state = %+v, want done", final)
	}

	mu.Lock()
	defer mu.Unlock()
	var doneEvents, lifeBProgress int
	for _, ev := range events {
		if ev.typ == "done" {
			doneEvents++
		}
		if ev.lifeB && (ev.typ == "progress" || ev.typ == "running") {
			lifeBProgress++
		}
	}
	// Exactly one terminal event: the resume neither replayed the job's
	// stream from scratch nor delivered a stale terminal.
	if doneEvents != 1 {
		t.Errorf("watcher saw %d done events, want exactly 1 (events: %+v)", doneEvents, events)
	}
	// The new life's progress was not filtered by the stale Last-Event-ID:
	// the new hub epoch issues ids above every old one.
	if lifeBProgress == 0 {
		t.Errorf("watcher saw no progress/running events after the restart (events: %+v)", events)
	}
}
