package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/report"
)

// Failure-injection tests for the wire layer: dead agents, bogus
// registrations, timeouts, and mid-deployment disconnects.

func TestRPCToDeadAgentFails(t *testing.T) {
	m := userMachine("doomed", false)
	s, _ := startFleet(t, m)
	// Grab the connection and kill it from the agent side.
	ac, _ := s.registry.Get("doomed")
	conn := ac.conn
	conn.Close()
	time.Sleep(20 * time.Millisecond)

	if _, err := s.Identify(context.Background(), "doomed", "mysql", [][]string{nil}); err == nil {
		t.Fatal("RPC to dead agent succeeded")
	}
}

func TestDeploymentQuarantinesDeadAgent(t *testing.T) {
	// A dead agent no longer kills the rollout: its member is retried on
	// the transient budget, then quarantined, and the wave converges
	// without it.
	m := userMachine("victim", false)
	s, _ := startFleet(t, m)
	if ac, ok := s.registry.Get("victim"); ok {
		ac.conn.Close()
	}
	time.Sleep(20 * time.Millisecond)

	urr := report.New()
	ctl := deploy.NewController(urr, nil)
	ctl.RetryBackoff = time.Millisecond
	clusters := []*deploy.Cluster{{
		ID: "c0", Distance: 0,
		Representatives: []deploy.Node{s.Node("victim")},
	}}
	out, err := ctl.Deploy(context.Background(), deploy.PolicyBalanced, mysql5Wire(), clusters)
	if err != nil {
		t.Fatalf("dead node killed the rollout: %v", err)
	}
	if len(out.Quarantined) != 1 || out.Quarantined[0] != "victim" {
		t.Fatalf("quarantined = %v, want [victim]", out.Quarantined)
	}
	if !out.Nodes["victim"].Quarantined || out.Integrated() != 0 {
		t.Fatalf("victim status = %+v, integrated = %d", out.Nodes["victim"], out.Integrated())
	}
}

func TestBogusRegistrationDropped(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if got := s.Agents(); len(got) != 0 {
		t.Fatalf("bogus registration accepted: %v", got)
	}
	requireClosedWithin(t, conn, time.Second)
	conn.Close()
}

// requireClosedWithin fails t unless the vendor closes conn within d —
// well inside its 10 s handshake deadline, so a hostile first frame is
// refused on sight rather than waited out.
func requireClosedWithin(t *testing.T, conn net.Conn, d time.Duration) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(d))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("vendor answered a bogus registration")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("vendor still holds the connection open after %v", d)
	}
}

// TestHugeFrameLengthRefused opens with a frame header declaring a
// 2^40-byte body: the vendor must drop the connection at once, without
// allocating or waiting for the body.
func TestHugeFrameLengthRefused(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(binary.AppendUvarint([]byte{frameVersion}, 1<<40)); err != nil {
		t.Fatal(err)
	}
	requireClosedWithin(t, conn, time.Second)
	if got := s.Agents(); len(got) != 0 {
		t.Fatalf("huge-frame registration accepted: %v", got)
	}
}

func TestRPCTimeout(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Timeout = 50 * time.Millisecond

	// A half-agent: registers, then never answers.
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if err := newFrameConn(nil, bw).WriteFrame(&Frame{Op: OpRegister, Register: &RegisterReq{Machine: "mute"}}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.WaitForAgents(1, time.Second); got != 1 {
		t.Fatalf("agents = %d", got)
	}

	start := time.Now()
	_, err = s.Identify(context.Background(), "mute", "mysql", nil)
	if err == nil {
		t.Fatal("RPC to mute agent succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

func TestUnknownOpRejectedByAgent(t *testing.T) {
	m := userMachine("strict", false)
	s, _ := startFleet(t, m)
	ac, _ := s.registry.Get("strict")
	_, err := ac.call(context.Background(), Frame{Op: "format-disk"}, time.Second)
	if err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("err = %v", err)
	}
}

func TestServerCloseTerminatesAgents(t *testing.T) {
	m := userMachine("transient", false)
	s, wg := startFleet(t, m)
	s.Close()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("agent did not terminate after server close")
	}
}
