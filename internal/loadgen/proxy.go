package loadgen

import (
	"io"
	"net"
	"sync"
)

// Proxy is a severable TCP relay the chaos controller places between the
// worker fleet and the daemon's coordinator listener: workers dial the
// proxy, the proxy dials the real coordinator, and SeverAll cuts every
// active connection at once to simulate a network partition. The workers'
// -retry loops then reconnect through the proxy, and the coordinator must
// requeue whatever the partitioned workers had in flight.
type Proxy struct {
	ln     net.Listener
	target string

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// NewProxy starts a relay on addr (e.g. "127.0.0.1:0") forwarding to
// target.
func NewProxy(addr, target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	go p.accept()
	return p, nil
}

// Addr is the address workers should dial instead of the coordinator.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SeverAll closes every active relayed connection, in both directions.
// New connections are still accepted afterwards — the partition heals as
// soon as the workers redial.
func (p *Proxy) SeverAll() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.conns)
	for c := range p.conns {
		c.Close()
	}
	p.conns = make(map[net.Conn]struct{})
	return n
}

// Close shuts the listener and severs everything for good.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.SeverAll()
	return err
}

func (p *Proxy) accept() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.relay(client)
	}
}

// relay bridges one worker connection to the coordinator. Both legs are
// registered so SeverAll kills the pair.
func (p *Proxy) relay(client net.Conn) {
	upstream, err := net.Dial("tcp", p.target)
	if err != nil {
		client.Close()
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		client.Close()
		upstream.Close()
		return
	}
	p.conns[client] = struct{}{}
	p.conns[upstream] = struct{}{}
	p.mu.Unlock()

	done := make(chan struct{}, 2)
	go func() { io.Copy(upstream, client); done <- struct{}{} }()
	go func() { io.Copy(client, upstream); done <- struct{}{} }()
	<-done // either direction closing tears down the pair
	client.Close()
	upstream.Close()
	<-done
	p.mu.Lock()
	delete(p.conns, client)
	delete(p.conns, upstream)
	p.mu.Unlock()
}
