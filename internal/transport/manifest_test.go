package transport

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/machine"
	"repro/internal/pkgmgr"
	"repro/internal/report"
)

// Tests for manifest-once distribution and the control channel's
// per-call hygiene: a manifest crosses a connection in full once, later
// frames name it by signature, and an agent that lost it gets it again.

// pipeAgent serves a over an in-process pipe whose vendor end is
// vendorEnd(srvEnd) (nil: the bare pipe), and waits for its registration.
func pipeAgent(t *testing.T, s *Server, a *Agent, vendorEnd func(net.Conn) net.Conn) {
	t.Helper()
	client, srv := net.Pipe()
	var end net.Conn = srv
	if vendorEnd != nil {
		end = vendorEnd(srv)
	}
	if err := s.ServeConn(end); err != nil {
		t.Fatal(err)
	}
	go a.ServeConn(client)
	if !s.WaitForAgent(a.M.Name, 5*time.Second) {
		t.Fatalf("agent %s never registered", a.M.Name)
	}
}

func listen(t *testing.T) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// forgetManifests drops every manifest the agent keeps, as an agent
// restarted without its manifest store would.
func (a *Agent) forgetManifests() {
	a.manMu.Lock()
	defer a.manMu.Unlock()
	clear(a.manifests)
	a.manOrder = nil
}

// heldManifests returns the signatures of the manifests the agent keeps.
func (a *Agent) heldManifests() []uint64 {
	a.manMu.Lock()
	defer a.manMu.Unlock()
	return slices.Clone(a.manOrder)
}

// TestIntegrateNamesManifestBySignature: once the agent acknowledged the
// manifest while testing, the integrate frame carries its signature, not
// the manifest again.
func TestIntegrateNamesManifestBySignature(t *testing.T) {
	s := listen(t)
	a := NewAgent(userMachine("sig-node", false))
	pipeAgent(t, s, a, nil)
	up := mysql5Wire()
	if _, err := s.Node("sig-node").TestUpgrade(context.Background(), up); err != nil {
		t.Fatal(err)
	}
	raw, err := s.ChunkStore().Manifest(up).JSON()
	if err != nil {
		t.Fatal(err)
	}
	before, _ := s.AgentStats("sig-node")
	if err := s.Node("sig-node").Integrate(context.Background(), up); err != nil {
		t.Fatal(err)
	}
	after, _ := s.AgentStats("sig-node")
	if frames := after.FramesSent - before.FramesSent; frames != 1 {
		t.Fatalf("integrate took %d frames, want 1", frames)
	}
	if sent := after.BytesSent - before.BytesSent; sent >= int64(len(raw)) {
		t.Fatalf("integrate frame is %d bytes, manifest alone is %d: manifest re-sent", sent, len(raw))
	}
}

// forgetfulNode is a remote member whose agent loses every manifest it
// holds just before each integrate request.
type forgetfulNode struct {
	*RemoteNode
	agent *Agent
}

func (n forgetfulNode) Integrate(ctx context.Context, up *pkgmgr.Upgrade) error {
	n.agent.forgetManifests()
	return n.RemoteNode.Integrate(ctx, up)
}

// TestEvictedManifestIsResent: a rollout whose agent evicts the manifest
// between test and integrate still converges. The integrate request names
// the manifest by signature, the agent answers NeedManifest, and the
// vendor sends the manifest in full again.
func TestEvictedManifestIsResent(t *testing.T) {
	s := listen(t)
	m := userMachine("evict-node", false)
	a := NewAgent(m)
	pipeAgent(t, s, a, nil)
	ctl := deploy.NewController(report.New(), nil)
	clusters := []*deploy.Cluster{{ID: "c0", Distance: 1,
		Representatives: []deploy.Node{forgetfulNode{s.Node("evict-node"), a}}}}
	up := mysql5Wire()
	out, err := ctl.Deploy(context.Background(), deploy.PolicyBalanced, up, clusters)
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != 1 {
		t.Fatalf("outcome = %+v", out)
	}
	if ref, _ := m.Package("mysql"); ref.Version != "5.0.22" {
		t.Fatalf("machine at %s after integrate", ref.Version)
	}
	sig := up.Signature()
	if held := a.heldManifests(); !slices.Equal(held, []uint64{sig}) {
		t.Fatalf("agent holds manifests %x after integrate, want the re-sent %x", held, sig)
	}
}

// TestAgentManifestStoreIsBounded: the agent keeps at most
// maxAgentManifests manifests, evicting the oldest, and pushing an
// evicted one again delivers it again.
func TestAgentManifestStoreIsBounded(t *testing.T) {
	s := listen(t)
	a := NewAgent(userMachine("bound-node", false))
	pipeAgent(t, s, a, nil)
	var ups []*pkgmgr.Upgrade
	for i := 0; i <= maxAgentManifests; i++ {
		up := mysql5Wire()
		up.ID = fmt.Sprintf("mysql-5.0.22-r%d", i)
		ups = append(ups, up)
		if _, err := s.Node("bound-node").TestUpgrade(context.Background(), up); err != nil {
			t.Fatal(err)
		}
	}
	held := a.heldManifests()
	if len(held) != maxAgentManifests || slices.Contains(held, ups[0].Signature()) {
		t.Fatalf("agent holds %d manifests (first kept: %v), want %d without the oldest",
			len(held), slices.Contains(held, ups[0].Signature()), maxAgentManifests)
	}
	// The connection's acknowledged manifest is the newest, so the oldest
	// goes out in full.
	if _, err := s.Node("bound-node").TestUpgrade(context.Background(), ups[0]); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(a.heldManifests(), ups[0].Signature()) {
		t.Fatal("evicted manifest not held again after a fresh push")
	}
}

// deadlineConn records every deadline set on the vendor's end of a
// control channel.
type deadlineConn struct {
	net.Conn
	mu        sync.Mutex
	deadlines []time.Time
}

func (c *deadlineConn) SetDeadline(d time.Time) error {
	c.mu.Lock()
	c.deadlines = append(c.deadlines, d)
	c.mu.Unlock()
	return c.Conn.SetDeadline(d)
}

// TestCallClearsDeadline: every RPC arms a deadline and clears it when the
// call returns. An armed net.Pipe deadline keeps the pipe reachable until
// it fires, so a deadline left behind would hold every finished
// connection in memory for the RPC timeout.
func TestCallClearsDeadline(t *testing.T) {
	s := listen(t)
	var rc *deadlineConn
	pipeAgent(t, s, NewAgent(machine.New("dl-node")), func(c net.Conn) net.Conn {
		rc = &deadlineConn{Conn: c}
		return rc
	})
	for i := 0; i < 2; i++ {
		if err := s.Ping(context.Background(), "dl-node"); err != nil {
			t.Fatal(err)
		}
		rc.mu.Lock()
		ds := slices.Clone(rc.deadlines)
		rc.mu.Unlock()
		if len(ds) != 2*(i+1) || ds[len(ds)-2].IsZero() {
			t.Fatalf("deadlines after call %d = %v, want one armed and one cleared per call", i+1, ds)
		}
		if !ds[len(ds)-1].IsZero() {
			t.Fatalf("deadline left at %v after a successful call", ds[len(ds)-1])
		}
	}
}

// TestFramingReplyLargerThanReadBuffer: a reply frame several times the
// vendor's per-channel read buffer is read whole, across buffer fills.
func TestFramingReplyLargerThanReadBuffer(t *testing.T) {
	s := listen(t)
	client, srv := net.Pipe()
	if err := s.ServeConn(srv); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 200; i++ {
		want = append(want, fmt.Sprintf("/usr/lib/resource-%04d.so", i))
	}
	go func() {
		defer client.Close()
		bw := bufio.NewWriter(client)
		fc := newFrameConn(bufio.NewReader(client), bw)
		fc.WriteFrame(&Frame{Op: OpRegister, Register: &RegisterReq{Machine: "big-reply"}})
		bw.Flush()
		var req Frame
		if fc.ReadFrame(&req) != nil {
			return
		}
		fc.WriteFrame(&Frame{ID: req.ID, OK: true, Resources: want})
		bw.Flush()
		fc.ReadFrame(&req) // hold the channel open until the vendor closes
	}()
	if !s.WaitForAgent("big-reply", 5*time.Second) {
		t.Fatal("agent never registered")
	}
	got, err := s.Identify(context.Background(), "big-reply", "app", nil)
	if err != nil {
		t.Fatal(err)
	}
	if size := len(fmt.Sprint(want)); size < 4*controlBufSize {
		t.Fatalf("reply of ~%d bytes does not exceed the %d-byte read buffer: test is vacuous", size, controlBufSize)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("reply resources differ: got %d entries, want %d", len(got), len(want))
	}
}
