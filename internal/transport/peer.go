// Peer chunk-serving tier: agents serve their content-addressed chunk
// caches to each other, so later waves of a staged rollout pull upgrade
// bytes mostly from already-upgraded peers instead of the vendor uplink.
//
// The tier rides on two properties the distribution layer already has:
// chunk addresses are strong content digests (a fetched chunk verifies
// itself, so peers need no trust), and the staging engine orders the
// fleet into waves (by the time a wave starts, the previous waves hold
// every chunk it needs). The vendor stays the coordinator — it tracks who
// holds what and hints eligible peers per fetch — but its egress drops
// from O(fleet) to O(distinct clusters): it seeds each wave's
// representatives and the swarm does the rest.

package transport

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"time"
)

// DefaultPeerTimeout bounds one whole peer conversation (dial, request,
// body). It is deliberately a fraction of DefaultRPCTimeout: an
// OpPeerFetch visiting MaxPeerHints peers must finish — including the
// vendor fallback that may follow — inside the vendor's RPC budget.
const DefaultPeerTimeout = 5 * time.Second

// MaxPeerHints caps how many peers the vendor hints per fetch; the agent
// tries them in order and only what all of them miss falls back to the
// vendor push.
const MaxPeerHints = 3

// PeerServeStats snapshots an agent's peer-serving counters.
type PeerServeStats struct {
	Requests int64 // peer_get requests answered
	Chunks   int64 // chunks served
	Bytes    int64 // chunk bytes served
}

// ServePeers starts the agent's peer chunk server on addr (use
// "127.0.0.1:0" for an ephemeral port) and returns the bound address.
// The address is advertised to the vendor in the registration frame, so
// call ServePeers before Run/RunWithReconnect. The server reads peer_get
// requests and answers each with a binary chunk frame holding whichever
// of the requested addresses the cache has — never an error for a miss;
// "what I have" is the protocol and the requester's fallback handles the
// rest.
func (a *Agent) ServePeers(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: peer listen: %w", err)
	}
	a.PeerAddr = ln.Addr().String()
	a.peerLn = ln
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go a.servePeerConn(conn)
		}
	}()
	return a.PeerAddr, nil
}

// ClosePeers stops the peer server (in-flight conversations finish on
// their own deadlines). Idempotent; a no-op if ServePeers never ran.
func (a *Agent) ClosePeers() {
	if a.peerLn != nil {
		a.peerLn.Close()
	}
}

// PeerStats snapshots the peer-serving counters.
func (a *Agent) PeerStats() PeerServeStats {
	return PeerServeStats{
		Requests: a.peerReqs.Load(),
		Chunks:   a.peerChunks.Load(),
		Bytes:    a.peerBytes.Load(),
	}
}

// servePeerConn answers peer_get requests on one accepted connection
// until the requester closes it or goes idle past the deadline.
func (a *Agent) servePeerConn(conn net.Conn) {
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	fc := newFrameConn(bufio.NewReader(conn), bw)
	for {
		conn.SetDeadline(time.Now().Add(a.peerTimeout() * 4))
		var req Frame
		if err := fc.ReadFrame(&req); err != nil {
			return
		}
		if req.Op != OpPeerGet {
			fc.WriteFrame(&Frame{ID: req.ID, Err: "unknown peer op " + req.Op})
			bw.Flush()
			return
		}
		chunks := a.Cache.Chunks(req.NeedChunks)
		resp := Frame{ID: req.ID, OK: true, ChunkMeta: chunkMeta(chunks)}
		if err := fc.WriteFrame(&resp); err != nil {
			return
		}
		if err := fc.WriteChunkBody(chunks); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		var n int64
		for _, ch := range chunks {
			n += int64(len(ch.Data))
		}
		a.peerReqs.Add(1)
		a.peerChunks.Add(int64(len(chunks)))
		a.peerBytes.Add(n)
	}
}

func (a *Agent) peerTimeout() time.Duration {
	if a.PeerTimeout > 0 {
		return a.PeerTimeout
	}
	return DefaultPeerTimeout
}

// handlePeerFetch executes a vendor-directed peer fetch: pull the
// requested addresses from the hinted peers in order, verify every chunk
// into the cache, and report what no peer could serve plus the transfer
// accounting. A peer that fails — dead, unreachable, or serving corrupt
// bytes — is dropped and reported; its verified chunks (delivered before
// the failure) are kept, since each stands on its own digest.
func (a *Agent) handlePeerFetch(req PeerFetchReq) Frame {
	res := &PeerResult{}
	remaining := make(map[uint64]bool, len(req.Addrs))
	for _, addr := range req.Addrs {
		remaining[addr] = true
	}
	for _, peer := range req.Peers {
		if len(remaining) == 0 {
			break
		}
		want := make([]uint64, 0, len(remaining))
		for addr := range remaining {
			want = append(want, addr)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got, n, err := a.fetchFromPeer(peer, want)
		for _, addr := range got {
			delete(remaining, addr)
		}
		if n > 0 {
			if res.Served == nil {
				res.Served = make(map[string]int64)
			}
			res.Served[peer] += n
			res.Bytes += n
			res.Chunks += len(got)
		}
		if err != nil {
			res.Failed = append(res.Failed, peer)
		}
	}
	need := make([]uint64, 0, len(remaining))
	for addr := range remaining {
		need = append(need, addr)
	}
	sort.Slice(need, func(i, j int) bool { return need[i] < need[j] })
	return Frame{OK: true, NeedChunks: need, Peer: res}
}

// fetchFromPeer runs one peer conversation: dial, ask for addrs, stream
// the binary body into the cache. It returns the addresses that verified
// and the bytes that moved; err reports a dropped peer (any transport
// failure or a digest mismatch — a peer that serves one corrupt chunk is
// not trusted for the rest of its stream).
func (a *Agent) fetchFromPeer(peerAddr string, addrs []uint64) (got []uint64, n int64, err error) {
	timeout := a.peerTimeout()
	conn, err := net.DialTimeout("tcp", peerAddr, timeout)
	if err != nil {
		return nil, 0, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	bw := bufio.NewWriter(conn)
	fc := newFrameConn(bufio.NewReader(conn), bw)
	if err := fc.WriteFrame(&Frame{ID: 1, Op: OpPeerGet, NeedChunks: addrs}); err != nil {
		return nil, 0, err
	}
	if err := bw.Flush(); err != nil {
		return nil, 0, err
	}
	var resp Frame
	if err := fc.ReadFrame(&resp); err != nil {
		return nil, 0, err
	}
	if resp.Err != "" {
		return nil, 0, fmt.Errorf("peer %s: %s", peerAddr, resp.Err)
	}
	if !resp.OK {
		return nil, 0, fmt.Errorf("peer %s: unacknowledged reply", peerAddr)
	}
	requested := make(map[uint64]bool, len(addrs))
	for _, addr := range addrs {
		requested[addr] = true
	}
	err = fc.ReadChunkBody(resp.ChunkMeta, func(addr uint64, data []byte) error {
		if !requested[addr] {
			return fmt.Errorf("peer %s served unrequested chunk", peerAddr)
		}
		if err := a.Cache.Add(addr, data); err != nil {
			return err // digest mismatch: corrupt peer
		}
		got = append(got, addr)
		n += int64(len(data))
		return nil
	})
	return got, n, err
}

// peerIndex is the vendor-side chunk-location index: which agents hold
// which chunk addresses, which advertise a peer port, and which are
// cleared to serve (their waves gated). It is fed by transfer bookkeeping
// — a manifest that resolved marks its addresses held — so no extra RPC
// ever maintains it.
type peerIndex struct {
	addrs    map[string]string          // agent name → advertised peer address
	held     map[string]map[uint64]bool // agent name → chunk addresses known held
	eligible map[string]bool            // names cleared to serve (gated waves)
}

func newPeerIndex() *peerIndex {
	return &peerIndex{
		addrs:    make(map[string]string),
		held:     make(map[string]map[uint64]bool),
		eligible: make(map[string]bool),
	}
}

// hints returns up to MaxPeerHints peer addresses for need, best coverage
// first (ties broken by name for determinism), excluding requester.
func (pi *peerIndex) hints(requester string, need []uint64) []string {
	type cand struct {
		name  string
		addr  string
		cover int
	}
	var cands []cand
	for name := range pi.eligible {
		if name == requester {
			continue
		}
		addr := pi.addrs[name]
		if addr == "" {
			continue
		}
		held := pi.held[name]
		if len(held) == 0 {
			continue
		}
		cover := 0
		for _, a := range need {
			if held[a] {
				cover++
			}
		}
		if cover > 0 {
			cands = append(cands, cand{name, addr, cover})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cover != cands[j].cover {
			return cands[i].cover > cands[j].cover
		}
		return cands[i].name < cands[j].name
	})
	if len(cands) > MaxPeerHints {
		cands = cands[:MaxPeerHints]
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.addr
	}
	return out
}

// markHeld records that name holds every address in refs.
func (pi *peerIndex) markHeld(name string, refs []uint64) {
	set := pi.held[name]
	if set == nil {
		set = make(map[uint64]bool, len(refs))
		pi.held[name] = set
	}
	for _, a := range refs {
		set[a] = true
	}
}

// nameByAddr resolves an advertised peer address back to its agent.
func (pi *peerIndex) nameByAddr(addr string) (string, bool) {
	for name, a := range pi.addrs {
		if a == addr {
			return name, true
		}
	}
	return "", false
}
