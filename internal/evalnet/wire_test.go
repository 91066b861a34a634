package evalnet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fedshap"
	"fedshap/internal/combin"
	"fedshap/internal/utility"
)

// rawPeer opens an attach request by hand on a raw connection — what a
// hostile or broken client can send — and returns the connection with
// the response status line once the coordinator answers.
func rawPeer(t *testing.T, addr net.Addr, proto, capacity int) (net.Conn, string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: fleet\r\n%s: %d\r\n%s: raw\r\n%s: %d\r\nTransfer-Encoding: chunked\r\n\r\n",
		attachPath, headerProto, proto, headerName, headerCapacity, capacity)
	status, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return conn, status
}

// writeChunk sends p as one chunk of the request body.
func writeChunk(w io.Writer, p []byte) error {
	if _, err := fmt.Fprintf(w, "%x\r\n", len(p)); err != nil {
		return err
	}
	if _, err := w.Write(p); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\r\n")
	return err
}

// waitRefused polls until the coordinator has refused n frames and its
// fleet is empty again.
func waitRefused(t *testing.T, c *Coordinator, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().RefusedFrames < n || c.WorkerCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("refused frames = %d, workers = %d; want %d, 0", c.Stats().RefusedFrames, c.WorkerCount(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestOversizeFrameClosesLink streams a 64 MiB line at the coordinator:
// the link closes after at most maxFrame bytes are buffered, the refusal
// is counted and logged, and the daemon's heap allocations stay within
// the cap plus the connection's fixed cost.
func TestOversizeFrameClosesLink(t *testing.T) {
	var logs bytes.Buffer
	c, addr := startCoordinatorWith(t, SchedulerConfig{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	chunk := bytes.Repeat([]byte("a"), 32<<10)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conn, status := rawPeer(t, addr, protoVersion, 1)
	if !strings.HasPrefix(status, "HTTP/1.1 200") {
		t.Fatalf("attach answered %q", status)
	}
	for sent := 0; sent < 64<<20; sent += len(chunk) {
		if writeChunk(conn, chunk) != nil {
			break // the coordinator hung up
		}
	}
	waitRefused(t, c, 1)
	runtime.ReadMemStats(&after)

	const slack = 1 << 20
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("heap allocations during the oversize line: %d bytes", grew)
	if grew > maxFrame+slack {
		t.Errorf("heap allocations grew by %d bytes reading one oversize line, want <= %d", grew, maxFrame+slack)
	}
	if !strings.Contains(logs.String(), "worker frame refused") {
		t.Errorf("no refusal logged: %q", logs.String())
	}
}

// TestBadPeersRefused sends what the coordinator must refuse without a
// panic and without handing the peer a task: an attach whose first frame
// does not decode, one at the previous protocol version, one announcing a
// capacity past maxCapacity, and the gob hello a worker from before the
// HTTP link opens with. A job running
// beside them evaluates locally: none of them joined the fleet.
func TestBadPeersRefused(t *testing.T) {
	c, addr := startCoordinator(t)
	var localCalls atomic.Int64
	oracle, _ := newSessionOracle(t, c, context.Background(), 4, func(s combin.Coalition) float64 {
		localCalls.Add(1)
		return additive(s)
	})

	conn, status := rawPeer(t, addr, protoVersion, 1)
	if !strings.HasPrefix(status, "HTTP/1.1 200") {
		t.Fatalf("attach answered %q", status)
	}
	if err := writeChunk(conn, []byte("{\"result\": not json}\n")); err != nil {
		t.Fatal(err)
	}
	waitRefused(t, c, 1)

	if _, status := rawPeer(t, addr, 3, 1); !strings.HasPrefix(status, "HTTP/1.1 400") {
		t.Errorf("protocol 3 attach answered %q, want 400", status)
	}
	if _, status := rawPeer(t, addr, protoVersion, maxCapacity+1); !strings.HasPrefix(status, "HTTP/1.1 400") {
		t.Errorf("attach with capacity %d answered %q, want 400", maxCapacity+1, status)
	}

	hello, err := os.ReadFile("testdata/proto3-hello.gob")
	if err != nil {
		t.Fatal(err)
	}
	old, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if _, err := old.Write(hello); err != nil {
		t.Fatal(err)
	}
	if status, _ := bufio.NewReader(old).ReadString('\n'); !strings.HasPrefix(status, "HTTP/1.1 400") {
		t.Errorf("gob hello answered %q, want 400", status)
	}

	if s := combin.NewCoalition(1, 2); oracle.U(s) != additive(s) || localCalls.Load() != 1 {
		t.Errorf("U(%s) evaluated locally %d times, want once", s, localCalls.Load())
	}
	if n := c.WorkerCount(); n != 0 {
		t.Errorf("fleet holds %d workers after four refusals", n)
	}
}

// TestFramesRoundTripBitExact encodes a spec whose request carries
// non-terminating floats, a task for a coalition holding players 63 and
// 126 (a Lo word past MaxInt64, the top player of a 127-client federation)
// and results with such utilities, and decodes each bit for bit.
func TestFramesRoundTripBitExact(t *testing.T) {
	spec := ProblemSpec{ID: "job-000042", Fingerprint: strings.Repeat("f", 64), N: 127, Request: fedshap.JobRequest{
		Data: "synthetic", Setup: "noisy-label", Noise: 0.1, Model: "mlp", N: 127, Algorithm: "ipss",
		Gamma: 300, K: 3, Seed: -7, Scale: "small", Workers: 2, DeadlineSeconds: 1.0 / 3,
		Confidence: 0.95, RankStop: true, Versions: []int{0, 1, math.MaxInt64},
	}}
	lo, hi := combin.NewCoalition(0, 63, 126).Words()
	results := []resultMsg{
		{TaskID: math.MaxUint64, U: 1.0 / 3, Warm: true, Nanos: math.MaxInt64},
		{TaskID: 1, U: math.Nextafter(0.1, 1)},
		{TaskID: 2, U: -math.SmallestNonzeroFloat64},
		{TaskID: 3, U: math.MaxFloat64, Err: "x"},
	}

	// Coordinator to worker: encoded as the link does, decoded as Dial does.
	var down bytes.Buffer
	frames := []envelope{{Spec: &spec}, {Task: &taskMsg{SpecID: spec.ID, Tasks: []taskWire{{ID: 9, Lo: lo, Hi: hi}, {ID: 10}}}}}
	for _, f := range frames {
		if err := json.NewEncoder(&down).Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	dec := json.NewDecoder(&down)
	for _, want := range frames {
		var got envelope
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame decoded as %+v, want %+v", got, want)
		}
	}

	// Worker to coordinator: encoded as Dial does, read as the link does.
	var up bytes.Buffer
	for _, res := range results {
		if err := json.NewEncoder(&up).Encode(res); err != nil {
			t.Fatal(err)
		}
	}
	fr := newFrameReader(&up)
	for _, want := range results {
		var got resultMsg
		if err := fr.next(&got); err != nil {
			t.Fatal(err)
		}
		if got != want || math.Float64bits(got.U) != math.Float64bits(want.U) {
			t.Errorf("result decoded as %+v, want %+v", got, want)
		}
	}
	if err := fr.next(&resultMsg{}); !errors.Is(err, io.EOF) {
		t.Errorf("read past the last frame: %v, want EOF", err)
	}
}

// TestResultFrameSize pins a result frame under 200 bytes, and an error
// reply with the longest error text a worker sends under the cap however
// JSON escapes it.
func TestResultFrameSize(t *testing.T) {
	frame := func(res resultMsg) int {
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return len(b) + 1
	}
	if n := frame(resultMsg{TaskID: math.MaxUint32, U: 1.0 / 3, Warm: true, Nanos: 12_345_678_901}); n >= 200 {
		t.Errorf("result frame is %d bytes, want < 200", n)
	}
	w := &Worker{Build: func(ProblemSpec) (Evaluator, error) {
		return Evaluator{}, errors.New(strings.Repeat("<\x01", maxErrText))
	}}
	res := w.run(&workerSpec{}, taskWire{ID: math.MaxUint64})
	if len(res.Err) > maxErrText {
		t.Errorf("error text is %d bytes, want <= %d", len(res.Err), maxErrText)
	}
	if n := frame(*res); n > maxFrame {
		t.Errorf("error reply is %d bytes, over the %d cap", n, maxFrame)
	}
}

// TestAbortTextCrossesTheWorker drives one task through a worker whose
// evaluator is an oracle over a utility that returns NaN. The oracle
// aborts rather than returning the value, so the reply comes from the
// worker's recover, not its non-finite post-check: an expected failure
// reads as the abort's own error, while a plain panic keeps the
// "evaluation panic: " prefix of a programming error.
func TestAbortTextCrossesTheWorker(t *testing.T) {
	coal := combin.NewCoalition(1, 2)
	cases := []struct {
		name string
		eval func(combin.Coalition) float64
		want string
	}{
		{"abort", utility.NewOracle(4, func(combin.Coalition) float64 { return math.NaN() }).U,
			(&utility.NonFiniteError{Coalition: coal, Value: math.NaN()}).Error()},
		{"panic", func(combin.Coalition) float64 { panic("index out of range") },
			"evaluation panic: index out of range"},
	}
	for _, tc := range cases {
		w := &Worker{Build: func(ProblemSpec) (Evaluator, error) {
			return Evaluator{Eval: tc.eval}, nil
		}}
		lo, hi := coal.Words()
		res := w.run(&workerSpec{}, taskWire{ID: 7, Lo: lo, Hi: hi})
		if res.TaskID != 7 || res.U != 0 || res.Err != tc.want {
			t.Errorf("%s: reply = %+v, want task 7, u 0 and err %q", tc.name, res, tc.want)
		}
	}
}

// TestCloseStrikesNoWorker shuts a coordinator down under an attached
// worker: the link ends on the coordinator's side, so the name earns no
// flap strike, and a job still running falls back to local evaluation.
func TestCloseStrikesNoWorker(t *testing.T) {
	c, addr := startCoordinator(t)
	startWorker(t, addr, "steady", 1, gameBuilder(nil, 0))
	waitWorkers(t, c, 1)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the worker's side of the link notice
	if n := c.flaps.Strikes("steady"); n != 0 {
		t.Errorf("shutdown struck the worker %d times", n)
	}
	oracle := utility.NewOracle(3, additive)
	oracle.WrapEval(func(inner utility.EvalFunc) utility.EvalFunc {
		sess := c.NewSessionWith(context.Background(), SessionConfig{Spec: ProblemSpec{ID: "after-close", N: 3}, Local: inner})
		t.Cleanup(sess.Close)
		return sess.Eval
	})
	if s := combin.NewCoalition(0, 2); oracle.U(s) != additive(s) {
		t.Errorf("U(%s) after shutdown = %v", s, oracle.U(s))
	}
}

// FuzzFleetFrame feeds arbitrary bytes to the coordinator's frame reader:
// each read is a decoded result or an error that ends the link, never a
// panic, and never a frame longer than the cap.
func FuzzFleetFrame(f *testing.F) {
	f.Add([]byte(`{"task":7,"u":0.25,"warm":true,"nanos":3}` + "\n"))
	f.Add([]byte(`{"task":{"spec":"job-1","tasks":[{"id":1,"lo":2,"hi":0}]}}` + "\n"))
	f.Add([]byte("{\"u\":1e999}\n\n{}\n"))
	f.Add(append(bytes.Repeat([]byte("a"), maxFrame), '\n'))
	if hello, err := os.ReadFile("testdata/proto3-hello.gob"); err == nil {
		f.Add(hello)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		rest := data
		for {
			if err := fr.next(&resultMsg{}); err != nil {
				return
			}
			i := bytes.IndexByte(rest, '\n')
			if i < 0 || i+1 > maxFrame {
				t.Fatalf("decoded a result from a %d-byte line", i+1)
			}
			rest = rest[i+1:]
			if fr.br.Size() != maxFrame {
				t.Fatalf("frame buffer grew to %d bytes", fr.br.Size())
			}
		}
	})
}

// TestDialEndsWithoutAResponse points a worker at peers that never answer
// its attach — one hangs up, one stays silent until the worker's context
// ends — as a coordinator of another protocol does: Dial must return, so
// the worker logs it and retries, rather than hang in its request.
func TestDialEndsWithoutAResponse(t *testing.T) {
	for _, tc := range []struct {
		name   string
		hangUp bool
	}{{"hangs up", true}, {"silent", false}} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				_, _ = conn.Read(make([]byte, 512)) // the request's first bytes
				if !tc.hangUp {
					_, _ = io.Copy(io.Discard, conn)
				}
			}()
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- (&Worker{Name: "w", Capacity: 1}).Dial(ctx, ln.Addr().String()) }()
			select {
			case err := <-done:
				if err == nil {
					t.Error("Dial returned no error")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Dial still blocked 5s after its peer stopped answering")
			}
		})
	}
}
