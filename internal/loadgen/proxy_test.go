package loadgen

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"
)

// TestProxySeverAndHeal: connections relayed through the proxy carry
// traffic both ways, SeverAll cuts every active connection at once, and
// new connections succeed immediately afterwards (the partition heals on
// redial).
func TestProxySeverAndHeal(t *testing.T) {
	// Upstream: a line-echo server standing in for the coordinator.
	up, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	go func() {
		for {
			c, err := up.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				sc := bufio.NewScanner(c)
				for sc.Scan() {
					fmt.Fprintf(c, "echo %s\n", sc.Text())
				}
			}(c)
		}
	}()

	p, err := NewProxy("127.0.0.1:0", up.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	dial := func() (net.Conn, *bufio.Scanner) {
		t.Helper()
		c, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return c, bufio.NewScanner(c)
	}
	roundtrip := func(c net.Conn, sc *bufio.Scanner, msg string) {
		t.Helper()
		if _, err := fmt.Fprintln(c, msg); err != nil {
			t.Fatalf("write: %v", err)
		}
		if !sc.Scan() {
			t.Fatalf("no echo for %q: %v", msg, sc.Err())
		}
		if got, want := sc.Text(), "echo "+msg; got != want {
			t.Fatalf("echo = %q, want %q", got, want)
		}
	}

	c1, sc1 := dial()
	defer c1.Close()
	c2, sc2 := dial()
	defer c2.Close()
	roundtrip(c1, sc1, "one")
	roundtrip(c2, sc2, "two")

	if n := p.SeverAll(); n != 4 { // two relayed pairs = four registered conns
		t.Errorf("SeverAll cut %d conns, want 4", n)
	}
	// Both severed connections are dead: reads drain and hit EOF/reset.
	c1.SetReadDeadline(time.Now().Add(2 * time.Second))
	if sc1.Scan() {
		t.Error("severed connection still delivered a line")
	}

	// The partition heals: a fresh dial relays again.
	c3, sc3 := dial()
	defer c3.Close()
	roundtrip(c3, sc3, "three")
}
