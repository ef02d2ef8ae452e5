package tcpchaos

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// echoServer accepts connections on an ephemeral port and echoes bytes
// back until the client half-closes.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_, _ = io.Copy(conn, conn)
			}()
		}
	}()
	return ln.Addr().String()
}

func dialProxy(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestProxyRelaysBothDirections(t *testing.T) {
	p, err := Listen(echoServer(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn := dialProxy(t, p)
	msg := []byte("through the proxy and back")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("echo read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echoed %q, want %q", got, msg)
	}
	// A pump forwards a chunk before it adds the chunk to the counter, so
	// the echo can arrive first: poll for the count.
	want := int64(2 * len(msg))
	for deadline := time.Now().Add(2 * time.Second); p.Relayed() < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("relayed %d bytes, want >= %d", p.Relayed(), want)
		}
	}
}

func TestProxyKillConnsCutsEstablished(t *testing.T) {
	p, err := Listen(echoServer(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn := dialProxy(t, p)
	if _, err := conn.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(conn, one); err != nil {
		t.Fatal(err)
	}
	if n := p.KillConns(); n != 1 {
		t.Fatalf("killed %d conns, want 1", n)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(one); err == nil {
		t.Fatal("read succeeded after KillConns; want connection error")
	}
	if p.Kills() != 1 {
		t.Fatalf("Kills() = %d, want 1", p.Kills())
	}
}

func TestProxyStallFreezesAndResumes(t *testing.T) {
	p, err := Listen(echoServer(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn := dialProxy(t, p)

	p.Stall(true)
	if _, err := conn.Write([]byte("frozen")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	conn.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if _, err := conn.Read(got); err == nil {
		t.Fatal("bytes flowed through a stalled proxy")
	}
	p.Stall(false)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("read after unstall: %v", err)
	}
	if string(got) != "frozen" {
		t.Fatalf("got %q after unstall", got)
	}
}

func TestProxyHalfOpenFreezesOneDirection(t *testing.T) {
	p, err := Listen(echoServer(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn := dialProxy(t, p)

	p.HalfOpen(true)
	// Client-to-backend still flows (the echo server hears us), but the
	// echo can't come back.
	if _, err := conn.Write([]byte("one way")); err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if _, err := conn.Read(one); err == nil {
		t.Fatal("backend-to-client bytes flowed through a half-open proxy")
	}
	p.HalfOpen(false)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(conn, one); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
}

func TestProxyPartitionRefusesAndHeals(t *testing.T) {
	p, err := Listen(echoServer(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn := dialProxy(t, p)
	p.Partition(true)

	// The established connection was cut...
	one := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(one); err == nil {
		t.Fatal("established connection survived a partition")
	}
	// ...and a new one gets no bytes through (accepted then cut, or
	// refused outright).
	c2, err := net.DialTimeout("tcp", p.Addr(), time.Second)
	if err == nil {
		c2.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		if _, err := c2.Write([]byte("x")); err == nil {
			if _, err := c2.Read(one); err == nil {
				t.Fatal("bytes flowed across a partition")
			}
		}
		c2.Close()
	}

	p.Partition(false)
	c3 := dialProxy(t, p)
	if _, err := c3.Write([]byte("y")); err != nil {
		t.Fatal(err)
	}
	c3.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c3, one); err != nil {
		t.Fatalf("healed partition does not relay: %v", err)
	}
}

func TestProxySeededKillAfterBudget(t *testing.T) {
	p, err := Listen(echoServer(t), Config{Seed: 7, KillAfterMin: 2048, KillAfterMax: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn := dialProxy(t, p)

	chunk := make([]byte, 512)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && p.Kills() == 0 {
		if _, err := conn.Write(chunk); err != nil {
			break // the cut surfaced on the write side
		}
		time.Sleep(time.Millisecond)
	}
	if p.Kills() == 0 {
		t.Fatal("seeded kill never fired despite exceeding the byte budget")
	}
}
