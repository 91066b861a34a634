package evalnet

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"
)

// sendHello writes one side's half of the handshake: the worker announces
// itself, the coordinator acknowledges.
func sendHello(enc *gob.Encoder, name string, capacity int) error {
	return enc.Encode(envelope{Hello: &helloMsg{Proto: protoVersion, Name: name, Capacity: capacity}})
}

// readHello reads the peer's half and checks it speaks this protocol.
func readHello(dec *gob.Decoder) (helloMsg, error) {
	var e envelope
	if err := dec.Decode(&e); err != nil {
		return helloMsg{}, err
	}
	if e.Hello == nil || e.Hello.Proto != protoVersion {
		return helloMsg{}, fmt.Errorf("bad hello (proto %v)", e.Hello)
	}
	return *e.Hello, nil
}

// link is the coordinator's end of one worker connection. It turns what
// the connection says into scheduler events (a result, a loss) and what
// the scheduler says into frames: send only queues, and the writer
// goroutine encodes outside every scheduler lock, so dispatching never
// blocks on a slow connection.
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

// Attach performs the registration handshake on conn and, on success, adds
// the worker to the fleet and services it until the connection breaks.
func (c *Coordinator) Attach(conn net.Conn) error {
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	hello, err := readHello(dec)
	if err != nil {
		return fmt.Errorf("evalnet: worker handshake: %w", err)
	}
	// Flap quarantine: a name that keeps dying is refused before the ack,
	// so the worker sees a failed handshake and backs off (its dial retry
	// loop has jittered exponential backoff) instead of rejoining the
	// fleet only to take tasks down with it again.
	if c.flaps != nil {
		if left, benched := c.flaps.Benched(hello.Name); benched {
			c.quarantineRejections.Add(1)
			c.sched.cfg.Logger.Warn("worker attach refused: quarantined",
				"worker", hello.Name, "bench_remaining", left)
			return fmt.Errorf("evalnet: worker %q quarantined for %s after repeated losses",
				hello.Name, left.Round(time.Millisecond))
		}
	}
	if err := sendHello(enc, "coordinator", 0); err != nil {
		return fmt.Errorf("evalnet: worker handshake ack: %w", err)
	}

	l := &link{c: c, conn: conn}
	l.wake.L = &l.mu
	// The scheduler may queue frames before attach returns; the writer
	// picks them up once started.
	w := c.sched.attach(hello.Name, conn.RemoteAddr().String(), hello.Capacity, l, time.Now())
	if w == nil {
		return fmt.Errorf("evalnet: coordinator closed")
	}
	l.slot = w
	c.sched.cfg.Logger.Info("worker attached", "worker", w.name, "id", w.id, "addr", w.addr, "capacity", w.capacity)

	go l.writeLoop(enc)
	l.readLoop(dec)
	return nil
}

// writeLoop drains the outbox until the link is hung up. A spec frame's
// warm-start snapshot is materialised here, just before encoding.
func (l *link) writeLoop(enc *gob.Encoder) {
	for {
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
			if m.warm != nil && m.Spec != nil {
				m.Spec.Warm = m.warm()
			}
			if err := enc.Encode(m); err != nil {
				l.lose()
				return
			}
		}
	}
}

// readLoop feeds results to the scheduler until the connection breaks.
func (l *link) readLoop(dec *gob.Decoder) {
	for {
		var e envelope
		if err := dec.Decode(&e); err != nil {
			l.lose()
			return
		}
		if e.Result != nil {
			l.c.sched.result(l.slot, *e.Result, time.Now())
		}
	}
}

// lose reports the broken connection: the loss counts toward the name's
// flap quarantine and the scheduler requeues whatever the worker still
// owed. A link the coordinator hung up on was not lost — a shutdown must
// not bench the next daemon life's fleet — and a break is reported once
// though both loops see it.
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
