package transport

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/deploy"
	"repro/internal/machine"
	"repro/internal/pkgmgr"
	"repro/internal/report"
)

// Tests for the peer chunk-serving tier: staged rollouts where later
// waves pull upgrade bytes from gated peers, and swarm degradation —
// peers that die mid-fetch, serve corrupt bytes, or refuse connections
// must drop cleanly to the vendor fallback without stalling the rollout.

// bigUpgrade builds an upgrade whose payload is fresh pseudo-random data,
// so no agent's seeded cache holds any of its chunks and every chunk has
// to move — the worst case the swarm exists to absorb.
func bigUpgrade(seed byte, size int) *pkgmgr.Upgrade {
	return &pkgmgr.Upgrade{
		ID: "mysql-swarm-5",
		Pkg: &pkgmgr.Package{Name: "mysql", Version: "5.0.22", Files: []*machine.File{
			{Path: apps.MySQLExec, Type: machine.TypeExecutable, Data: bigData(seed, size), Version: "5.0.22"},
		}},
		Replaces: "4.1.22",
	}
}

// startSwarmFleet launches a server and n peer-serving agents in one
// cluster (first machine the representative), returning the server and
// machines. Every agent runs a peer chunk server advertised at
// registration.
func startSwarmFleet(t *testing.T, n int) (*Server, []*machine.Machine, []*deploy.Cluster) {
	t.Helper()
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	machines := make([]*machine.Machine, n)
	cl := &deploy.Cluster{ID: "c0", Distance: 1}
	for i := 0; i < n; i++ {
		name := "sw-" + string(rune('a'+i))
		machines[i] = userMachine(name, false)
		agent := NewAgent(machines[i])
		if _, err := agent.ServePeers("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(agent.ClosePeers)
		go agent.Run(s.Addr())
		if i == 0 {
			cl.Representatives = append(cl.Representatives, s.Node(name))
		} else {
			cl.Others = append(cl.Others, s.Node(name))
		}
	}
	if got := s.WaitForAgents(n, 5*time.Second); got != n {
		t.Fatalf("only %d/%d agents registered", got, n)
	}
	return s, machines, []*deploy.Cluster{cl}
}

// deploySwarm runs a balanced staged rollout with the peer tier wired the
// way mirage-vendor wires it: gated waves become eligible peer servers.
func deploySwarm(t *testing.T, s *Server, clusters []*deploy.Cluster, up *pkgmgr.Upgrade) *deploy.Outcome {
	t.Helper()
	ctl := deploy.NewController(report.New(), nil)
	ctl.Transfer = s.TransferSnapshot
	ctl.GatedMembers = s.MarkPeerEligible
	out, err := ctl.Deploy(context.Background(), deploy.PolicyBalanced, up, clusters)
	if err != nil {
		t.Fatal(err)
	}
	if out.Abandoned {
		t.Fatalf("outcome = %+v", out)
	}
	return out
}

// TestSwarmServesLaterWaves is the tier's happy path: the representative
// wave is seeded by the vendor, gates, and the remaining members pull the
// payload from it peer-to-peer; the vendor's own chunk egress stays at
// roughly one copy.
func TestSwarmServesLaterWaves(t *testing.T) {
	const fleet, size = 5, 128 * 1024
	s, machines, clusters := startSwarmFleet(t, fleet)
	up := bigUpgrade(7, size)
	out := deploySwarm(t, s, clusters, up)

	if out.Integrated() != fleet {
		t.Fatalf("integrated %d/%d", out.Integrated(), fleet)
	}
	for _, m := range machines {
		if ref, _ := m.Package("mysql"); ref.Version != "5.0.22" {
			t.Fatalf("%s at %s after swarm deployment", m.Name, ref.Version)
		}
	}
	if out.Transfer.PeerBytes == 0 || out.Transfer.PeerHits == 0 {
		t.Fatalf("transfer = %+v, want peer traffic", out.Transfer)
	}
	// The vendor pushes the payload to the representative (and any swarm
	// stragglers); the other four members ride the peer tier. Anything
	// under 3 payload copies proves the swarm carried most of the load.
	if out.Transfer.ChunkBytes > 3*size {
		t.Fatalf("vendor pushed %d chunk bytes for a %d-byte payload × %d agents — swarm not engaged",
			out.Transfer.ChunkBytes, size, fleet)
	}
	if out.Transfer.PeerBytes < size {
		t.Fatalf("peer tier served %d bytes, want at least one payload copy (%d)",
			out.Transfer.PeerBytes, size)
	}
}

// fakePeer runs a TCP server speaking just enough of the peer protocol to
// misbehave on demand: serve reads one peer_get frame and gets the
// requested addresses plus the frame connection to answer on.
func fakePeer(t *testing.T, serve func(fc *frameConn, bw *bufio.Writer, req Frame)) string {
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
				bw := bufio.NewWriter(conn)
				fc := newFrameConn(bufio.NewReader(conn), bw)
				var req Frame
				if err := fc.ReadFrame(&req); err != nil {
					return
				}
				serve(fc, bw, req)
			}()
		}
	}()
	return ln.Addr().String()
}

// upgradeAddrs resolves the distinct chunk addresses of up in the
// server's store, as a fake peer's advertised holdings.
func upgradeAddrs(s *Server, up *pkgmgr.Upgrade) []uint64 {
	return s.ChunkStore().Manifest(up).Addrs()
}

// TestCorruptPeerFallsBackToVendor: a hinted peer serves bytes whose
// digest does not match the requested address. The agent must reject
// every chunk, drop the peer, and let the vendor push — the rollout
// converges and the corruption is visible only as fallback accounting.
func TestCorruptPeerFallsBackToVendor(t *testing.T) {
	m := userMachine("corrupt-target", false)
	s, _ := startFleet(t, m)
	up := bigUpgrade(3, 64*1024)
	addrs := upgradeAddrs(s, up)

	evil := fakePeer(t, func(fc *frameConn, bw *bufio.Writer, req Frame) {
		chunks, err := s.dist.Chunks(req.NeedChunks)
		if err != nil {
			return
		}
		for i := range chunks {
			// Copy before corrupting: the store owns the real bytes.
			data := append([]byte(nil), chunks[i].Data...)
			data[0] ^= 0xff
			chunks[i].Data = data
		}
		fc.WriteFrame(&Frame{ID: req.ID, OK: true, ChunkMeta: chunkMeta(chunks)})
		fc.WriteChunkBody(chunks)
		bw.Flush()
	})
	s.AddPeerSource("evil", evil, addrs)

	rep, err := s.Node("corrupt-target").TestUpgrade(context.Background(), up)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Success {
		t.Fatalf("test failed: %+v", rep)
	}
	st, _ := s.AgentStats("corrupt-target")
	if st.VendorFallbacks == 0 {
		t.Fatalf("stats = %+v, want vendor fallbacks after corrupt peer", st)
	}
	if st.PeerBytesIn != 0 || st.PeerHits != 0 {
		t.Fatalf("stats = %+v: corrupt chunks were credited as peer traffic", st)
	}
}

// TestPeerDiesMidFetch: a hinted peer announces a chunk body and closes
// the connection partway through it. The agent must abandon the peer and
// recover via the vendor push.
func TestPeerDiesMidFetch(t *testing.T) {
	m := userMachine("dying-target", false)
	s, _ := startFleet(t, m)
	up := bigUpgrade(5, 64*1024)
	addrs := upgradeAddrs(s, up)

	dying := fakePeer(t, func(fc *frameConn, bw *bufio.Writer, req Frame) {
		chunks, err := s.dist.Chunks(req.NeedChunks)
		if err != nil {
			return
		}
		fc.WriteFrame(&Frame{ID: req.ID, OK: true, ChunkMeta: chunkMeta(chunks)})
		// First chunk only, then half of the second: the body dies mid-read.
		bw.Write(chunks[0].Data)
		if len(chunks) > 1 {
			bw.Write(chunks[1].Data[:len(chunks[1].Data)/2])
		}
		bw.Flush()
		// Returning closes the connection (deferred in fakePeer).
	})
	s.AddPeerSource("dying", dying, addrs)

	rep, err := s.Node("dying-target").TestUpgrade(context.Background(), up)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Success {
		t.Fatalf("test failed: %+v", rep)
	}
	st, _ := s.AgentStats("dying-target")
	if st.VendorFallbacks == 0 {
		t.Fatalf("stats = %+v, want vendor fallbacks after dead peer", st)
	}
	// The one complete chunk that verified before the death is kept — the
	// whole point of per-chunk digests — and counted.
	if st.PeerHits != 1 {
		t.Fatalf("stats = %+v, want exactly the one pre-death chunk credited", st)
	}
}

// TestUnreachablePeerFallsBack: the hinted peer's port refuses
// connections outright.
func TestUnreachablePeerFallsBack(t *testing.T) {
	m := userMachine("refused-target", false)
	s, _ := startFleet(t, m)
	up := bigUpgrade(9, 32*1024)
	addrs := upgradeAddrs(s, up)

	// Bind and immediately close a port to get a refusing address.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	s.AddPeerSource("vanished", dead, addrs)

	rep, err := s.Node("refused-target").TestUpgrade(context.Background(), up)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Success {
		t.Fatalf("test failed: %+v", rep)
	}
	st, _ := s.AgentStats("refused-target")
	if st.VendorFallbacks == 0 || st.PeerBytesIn != 0 {
		t.Fatalf("stats = %+v, want pure vendor fallback", st)
	}
	if ref, _ := m.Package("mysql"); ref.Version != "4.1.22" {
		t.Fatalf("test mutated the machine: %s", ref.Version)
	}
}

// TestPeerIndexHints pins the hint policy: coverage-ranked, requester
// excluded, capped at MaxPeerHints, deterministic tie-break.
func TestPeerIndexHints(t *testing.T) {
	pi := newPeerIndex()
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		pi.addrs[n] = n + ":1"
		pi.eligible[n] = true
	}
	pi.markHeld("a", []uint64{1, 2, 3})
	pi.markHeld("b", []uint64{1, 2})
	pi.markHeld("c", []uint64{1})
	pi.markHeld("d", []uint64{1})
	pi.markHeld("e", []uint64{9})

	got := pi.hints("z", []uint64{1, 2, 3})
	want := []string{"a:1", "b:1", "c:1"} // e covers nothing, d loses the tie-break cut
	if len(got) != len(want) {
		t.Fatalf("hints = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hints = %v, want %v", got, want)
		}
	}
	// The requester never appears in its own hints.
	for _, h := range pi.hints("a", []uint64{1, 2, 3}) {
		if h == "a:1" {
			t.Fatal("requester hinted to itself")
		}
	}
	// Ineligible agents are invisible no matter their coverage.
	delete(pi.eligible, "a")
	for _, h := range pi.hints("z", []uint64{1, 2, 3}) {
		if h == "a:1" {
			t.Fatal("ineligible agent hinted")
		}
	}
}
