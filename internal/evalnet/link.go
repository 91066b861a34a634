package evalnet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// connKey keys the attach request's connection in its context, so a link
// can close it: hanging up is what ends both halves of the stream.
type connKey struct{}

// link is the coordinator's end of one attached worker. It turns what the
// request body says into scheduler events (a result, a loss) and what the
// scheduler says into frames on the response: send only queues, and the
// writer goroutine encodes outside every scheduler lock, so dispatching
// never blocks on a slow connection.
type link struct {
	c    *Coordinator
	conn net.Conn
	slot *slot

	mu     sync.Mutex
	wake   sync.Cond // on mu: outbox grew or closed was set
	outbox []envelope
	closed bool
}

func (l *link) send(e envelope) {
	l.mu.Lock()
	l.outbox = append(l.outbox, e)
	l.mu.Unlock()
	l.wake.Signal()
}

// hangup closes the link and reports whether this call did.
func (l *link) hangup() bool {
	l.mu.Lock()
	first := !l.closed
	l.closed = true
	l.mu.Unlock()
	l.wake.Signal() // release the writer
	l.conn.Close()  // and the reader
	return first
}

// attach serves POST /v1/fleet/attach: it checks the worker's headers and
// quarantine, adds the worker to the fleet and streams until the link
// breaks — frames out on the response, results in on the request body.
func (c *Coordinator) attach(w http.ResponseWriter, r *http.Request) {
	// Full duplex from the start: the server would otherwise drain the
	// request body before writing any response, a refusal included, and
	// the worker only ends its body once it has read the response.
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	name := r.Header.Get(headerName)
	if proto := r.Header.Get(headerProto); proto != strconv.Itoa(protoVersion) {
		http.Error(w, fmt.Sprintf("worker protocol %q, coordinator speaks %d", proto, protoVersion), http.StatusBadRequest)
		return
	}
	capacity, err := strconv.Atoi(r.Header.Get(headerCapacity))
	if err != nil || capacity < 1 || capacity > maxCapacity {
		http.Error(w, fmt.Sprintf("bad %s header %q", headerCapacity, r.Header.Get(headerCapacity)), http.StatusBadRequest)
		return
	}
	// Flap quarantine: a name that keeps dying is refused before it joins,
	// so the worker sees a failed attach and backs off (its dial retry
	// loop has jittered exponential backoff) instead of rejoining the
	// fleet only to take tasks down with it again.
	if c.flaps != nil {
		if left, benched := c.flaps.Benched(name); benched {
			c.quarantineRejections.Add(1)
			c.sched.cfg.Logger.Warn("worker attach refused: quarantined",
				"worker", name, "bench_remaining", left)
			http.Error(w, fmt.Sprintf("worker %q quarantined for %s after repeated losses",
				name, left.Round(time.Millisecond)), http.StatusServiceUnavailable)
			return
		}
	}
	l := &link{c: c, conn: r.Context().Value(connKey{}).(net.Conn)}
	l.wake.L = &l.mu
	// The scheduler may queue frames before the writer starts; it picks
	// them up once started.
	s := c.sched.attach(name, r.RemoteAddr, capacity, l, time.Now())
	if s == nil {
		http.Error(w, "coordinator closed", http.StatusServiceUnavailable)
		return
	}
	l.slot = s
	c.sched.cfg.Logger.Info("worker attached", "worker", s.name, "id", s.id, "addr", s.addr, "capacity", s.capacity)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	written := make(chan struct{})
	go func() {
		defer close(written)
		l.writeLoop(w, rc)
	}()
	l.readLoop(r.Body)
	<-written // the response is the handler's until it returns
}

// writeLoop drains the outbox until the link is hung up, flushing once per
// drained batch.
func (l *link) writeLoop(w io.Writer, rc *http.ResponseController) {
	enc := json.NewEncoder(w)
	for {
		if err := rc.Flush(); err != nil {
			l.lose()
			return
		}
		l.mu.Lock()
		for len(l.outbox) == 0 && !l.closed {
			l.wake.Wait()
		}
		msgs, closed := l.outbox, l.closed
		l.outbox = nil
		l.mu.Unlock()
		if closed {
			return
		}
		for _, m := range msgs {
			if err := enc.Encode(m); err != nil {
				l.lose()
				return
			}
		}
	}
}

// readLoop feeds results to the scheduler until the link breaks. A
// refused frame ends the link like any other loss, and is counted.
func (l *link) readLoop(body io.Reader) {
	fr := newFrameReader(body)
	for {
		var res resultMsg
		if err := fr.next(&res); err != nil {
			if errors.Is(err, errBadFrame) {
				l.c.refusedFrames.Add(1)
				l.c.sched.cfg.Logger.Warn("worker frame refused; link closed",
					"worker", l.slot.name, "id", l.slot.id, "error", err)
			}
			l.lose()
			return
		}
		l.c.sched.result(l.slot, res, time.Now())
	}
}

// lose reports the broken link: the loss counts toward the name's flap
// quarantine and the scheduler requeues whatever the worker still owed. A
// link the coordinator hung up on was not lost — a shutdown must not bench
// the next daemon life's fleet — and a break is reported once though both
// loops see it.
func (l *link) lose() {
	if !l.hangup() {
		return
	}
	c := l.c
	// Recorded before the worker leaves the fleet, so whoever sees it gone
	// also sees its strike.
	if c.flaps != nil {
		if benched, until := c.flaps.Fail(l.slot.name); benched {
			c.sched.cfg.Logger.Warn("worker quarantined after repeated losses",
				"worker", l.slot.name, "bench_until", until.UTC().Format(time.RFC3339))
		}
	}
	c.sched.lost(l.slot, time.Now())
}
