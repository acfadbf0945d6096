package transport

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/distrib"
	"repro/internal/pkgmgr"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/resource"
	"repro/internal/telemetry"
)

// DefaultRPCTimeout bounds each vendor-initiated call; upgrade validation
// replays traces, so it is generous.
const DefaultRPCTimeout = 30 * time.Second

// ErrAgentGone marks an RPC that failed because the agent's control
// channel is unavailable — never registered, disconnected, or broken
// mid-call. It wraps deploy.ErrTransient: at fleet scale agents disconnect
// constantly and usually redial, so the deployment controller retries
// these per member instead of killing the rollout.
var ErrAgentGone = fmt.Errorf("agent unreachable: %w", deploy.ErrTransient)

// ErrAgentReplaced marks an RPC cut short because a new connection
// registered under the same machine name (the agent redialed; the old
// channel was closed deliberately). Also transient: retrying resolves the
// name to the fresh channel.
var ErrAgentReplaced = fmt.Errorf("agent connection replaced: %w", deploy.ErrTransient)

// ErrServerClosed marks an operation refused or cut short because the
// vendor server was shut down. Deliberately NOT transient: unlike an agent
// that dropped (and will redial), a closed server is infrastructure going
// away — retrying per member would only quarantine the whole fleet, so
// the deployment controller halts the plan instead.
var ErrServerClosed = errors.New("transport: server closed")

// Stats is a snapshot of the vendor-side transfer counters, kept per
// connection and aggregated per server: the deployment layer's
// TransferStats, so a rollout's transfer delta is a plain Sub of two
// server snapshots.
type Stats = deploy.TransferStats

// statsCounters is the mutable (atomic) form behind Stats snapshots.
type statsCounters struct {
	frames, bytes, chunkBytes, hits, misses atomic.Int64
	peerIn, peerOut, peerHits, fallbacks    atomic.Int64
	rolledBack, faults                      atomic.Int64
}

func (c *statsCounters) snapshot() Stats {
	return Stats{
		FramesSent:       c.frames.Load(),
		BytesSent:        c.bytes.Load(),
		ChunkBytes:       c.chunkBytes.Load(),
		ChunkHits:        c.hits.Load(),
		ChunkMisses:      c.misses.Load(),
		PeerBytesIn:      c.peerIn.Load(),
		PeerBytes:        c.peerOut.Load(),
		PeerHits:         c.peerHits.Load(),
		VendorFallbacks:  c.fallbacks.Load(),
		ChunksRolledBack: c.rolledBack.Load(),
		FaultsInjected:   c.faults.Load(),
	}
}

// countingWriter counts every byte written to the socket into the
// connection's and the server's counters.
type countingWriter struct {
	w           io.Writer
	conn, total *statsCounters
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.conn.bytes.Add(int64(n))
	cw.total.bytes.Add(int64(n))
	return n, err
}

// agentConn is the vendor-side handle on one connected agent.
type agentConn struct {
	name string
	conn net.Conn
	srv  *Server
	// bw buffers frame writes so one frame is one buffered write burst
	// with an explicit flush, not a stream of tiny unbuffered socket
	// writes; fc is the binary frame codec over it (and the reader),
	// which reads exactly one frame, so a raw chunk body can ride behind it.
	bw *bufio.Writer
	fc *frameConn

	stats *statsCounters // this connection's counters
	total *statsCounters // the server-wide counters

	// replaced is set (before the socket is closed) when a new
	// registration under the same name supersedes this channel, so an
	// in-flight call surfaces ErrAgentReplaced instead of the raw read
	// error the closed socket would produce.
	replaced atomic.Bool

	// ackedSig is the signature of the last manifest the agent
	// acknowledged receiving in full on this connection (0: none). Pushes
	// of that manifest name it by signature instead of re-sending it.
	ackedSig atomic.Uint64

	mu     sync.Mutex // serializes RPCs on the channel
	nextID int
}

// fail classifies an I/O failure on the channel: the channel is dead
// either way (a timed-out call would desynchronize reply IDs), so it is
// closed and dropped from the registry, and the caller gets a typed
// error — the context's error if the caller cancelled or timed out,
// ErrServerClosed if the server was shut down, ErrAgentReplaced if a
// newer registration superseded this channel, ErrAgentGone (transient)
// otherwise.
func (ac *agentConn) fail(ctx context.Context, op string, err error) error {
	ac.conn.Close()
	ac.srv.drop(ac)
	if cerr := ctx.Err(); cerr != nil {
		// The I/O failure is the abort's own doing (the conn deadline was
		// yanked); surface the cancellation, which is not transient.
		return fmt.Errorf("transport: %s to %s: %w", op, ac.name, cerr)
	}
	if ac.srv.isClosed() {
		return fmt.Errorf("transport: %s to %s: %w", op, ac.name, ErrServerClosed)
	}
	if ac.replaced.Load() {
		return fmt.Errorf("transport: %s to %s: %w", op, ac.name, ErrAgentReplaced)
	}
	return fmt.Errorf("transport: %s to %s: %w: %v", op, ac.name, ErrAgentGone, err)
}

// call performs one synchronous RPC on the agent channel. The deadline is
// the tighter of the server timeout and the context's; cancelling ctx
// mid-call yanks the connection deadline, so a blocked read returns
// immediately and the call surfaces ctx.Err() — Server.Call-level
// cancellation, the primitive every higher layer's abort rides on.
func (ac *agentConn) call(ctx context.Context, req Frame, timeout time.Duration) (Frame, error) {
	return ac.callBody(ctx, req, nil, timeout)
}

// callBody is call with an optional binary chunk body: when body is
// non-nil, req.ChunkMeta must announce it and the raw bytes are written
// immediately after the header, inside the same buffered burst. It is
// also the telemetry choke point: every vendor→agent RPC books its
// latency and written bytes here (per-op histograms on the server's
// registry, an "rpc" span on whatever rollout trace rides ctx).
func (ac *agentConn) callBody(ctx context.Context, req Frame, body []distrib.Chunk, timeout time.Duration) (Frame, error) {
	if err := ctx.Err(); err != nil {
		return Frame{}, fmt.Errorf("transport: %s to %s: %w", req.Op, ac.name, err)
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	if ac.replaced.Load() {
		return Frame{}, fmt.Errorf("transport: %s to %s: %w", req.Op, ac.name, ErrAgentReplaced)
	}
	tr, parent := telemetry.FromContext(ctx)
	var span telemetry.SpanID
	if tr != nil {
		span = tr.Begin(parent, "rpc", req.Op, ac.name)
	}
	t0 := time.Now()
	bytes0 := ac.stats.bytes.Load()
	resp, err := ac.exchange(ctx, req, body, timeout)
	// ac.mu serializes RPCs on this channel, so the connection byte
	// counter's delta across the exchange is exactly this call's writes
	// (the frame plus any binary chunk body).
	sent := ac.stats.bytes.Load() - bytes0
	lat, by := ac.srv.rpcHists()
	lat.With(req.Op).ObserveSince(t0)
	by.With(req.Op).Observe(sent)
	tr.EndBytes(span, sent, err)
	return resp, err
}

// rpcHists returns the cached RPC latency and frame-byte families
// (nil families when no registry is wired — every method no-ops). The
// first call registers all of the transport's families on s.Telemetry.
func (s *Server) rpcHists() (*telemetry.Family, *telemetry.Family) {
	s.telemOnce.Do(s.registerMetrics)
	return s.rpcLatency, s.rpcBytes
}

// registerMetrics registers the transport's families on s.Telemetry: the
// RPC and delta-push histograms, registry occupancy, and the server-wide
// transfer counters. The scalar families read the registry and the
// statsCounters atomics at scrape time, so the RPC path books nothing
// beyond the atomic adds it already makes.
func (s *Server) registerMetrics() {
	reg := s.Telemetry
	s.rpcLatency = reg.Histogram("mirage_rpc_latency_seconds",
		"Vendor-to-agent RPC latency by op, faults and deadline waits included.", "op", 1e-9)
	s.rpcBytes = reg.Histogram("mirage_rpc_frame_bytes",
		"Bytes written to the agent socket per RPC by op (frame header plus chunk body).", "op", 1)
	s.deltaBytes()
	reg.Func("mirage_registry_agents_total", "Registered agents.", "gauge", "",
		func(emit func(string, float64)) { emit("", float64(s.registry.Len())) })
	reg.Func("mirage_registry_agents", "Registered agents per registry shard.", "gauge", "shard",
		func(emit func(string, float64)) {
			for i, n := range s.ShardSizes() {
				emit(strconv.Itoa(i), float64(n))
			}
		})
	c := &s.stats
	for _, m := range []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"mirage_transfer_frames_total", "Request frames sent to agents.", &c.frames},
		{"mirage_transfer_bytes_total", "Total bytes on the wire.", &c.bytes},
		{"mirage_transfer_chunk_bytes_total", "Content-addressed chunk payload bytes.", &c.chunkBytes},
		{"mirage_transfer_chunk_hits_total", "Manifest chunks agents already held.", &c.hits},
		{"mirage_transfer_chunk_misses_total", "Manifest chunks that had to be transferred.", &c.misses},
		{"mirage_peer_bytes_total", "Chunk bytes served agent-to-agent.", &c.peerOut},
		{"mirage_peer_hits_total", "Chunks served by the peer tier.", &c.peerHits},
		{"mirage_peer_fallbacks_total", "Chunks the peer tier missed and the vendor pushed.", &c.fallbacks},
		{"mirage_rollback_chunks_total", "Manifest chunks resolved while restoring members to the baseline.", &c.rolledBack},
		{"mirage_faults_injected_total", "Transport faults fired by the chaos injector.", &c.faults},
	} {
		reg.Func(m.name, m.help, "counter", "", func(emit func(string, float64)) { emit("", float64(m.v.Load())) })
	}
}

// deltaBytes returns the histogram of profile-delta push sizes, by kind
// ("delta" or "full").
func (s *Server) deltaBytes() *telemetry.Family {
	return s.Telemetry.Histogram("mirage_delta_bytes", "Bytes on the wire per profile delta push.", "kind", 1)
}

// exchange performs the locked wire exchange behind callBody.
func (ac *agentConn) exchange(ctx context.Context, req Frame, body []distrib.Chunk, timeout time.Duration) (Frame, error) {
	// Vendor-side chaos: the injector's verdict for this call. Drop and
	// crash kill the channel before the frame leaves (the agent never saw
	// the call); reset kills it after the flush (the agent acts on a
	// request the vendor never sees acknowledged); corrupt damages chunk
	// payload in a copy — content addressing rejects it downstream.
	resetAfter := false
	if fi := ac.srv.Faults; fi != nil {
		switch fi.Next(ac.name, req.Op) {
		case FaultDrop, FaultCrash:
			ac.bookFault()
			return Frame{}, ac.fail(ctx, req.Op, errFaultInjected)
		case FaultDelay:
			ac.bookFault()
			d := fi.DelayBy()
			time.Sleep(d)
			ac.srv.Telemetry.Histogram("mirage_fault_delay_seconds",
				"Injected fault delay absorbed by agent RPCs.", "", 1e-9).With("").Observe(int64(d))
		case FaultCorrupt:
			ac.bookFault()
			if body != nil {
				body = corruptChunks(body)
			}
		case FaultReset:
			ac.bookFault()
			resetAfter = true
		}
	}
	ac.nextID++
	req.ID = ac.nextID
	deadline := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := ac.conn.SetDeadline(deadline); err != nil {
		return Frame{}, ac.fail(ctx, req.Op, err)
	}
	// A cancelled context forces the in-flight I/O to fail now rather than
	// at the deadline. The channel dies with it — acceptable: aborts are
	// rare, and a reconnecting agent redials in milliseconds. If the
	// callback has already started when the call returns, wait it out:
	// a stale deadline-yank landing after a *successful* call would
	// poison the channel's next RPC with a spurious agent-gone failure.
	//
	// Once the call is over its deadline is cleared. An armed deadline on
	// a net.Pipe keeps the pipe reachable from the runtime's timer until
	// it fires, 30 s on; cleared, a closed pipe is garbage at once.
	yanked := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		defer close(yanked)
		ac.conn.SetDeadline(time.Unix(1, 0))
	})
	defer func() {
		if !stop() {
			<-yanked
		}
		ac.conn.SetDeadline(time.Time{})
	}()
	if err := ac.fc.WriteFrame(&req); err != nil {
		return Frame{}, ac.fail(ctx, "sending "+req.Op, err)
	}
	if body != nil {
		if err := ac.fc.WriteChunkBody(body); err != nil {
			return Frame{}, ac.fail(ctx, "sending "+req.Op+" body", err)
		}
	}
	if err := ac.bw.Flush(); err != nil {
		return Frame{}, ac.fail(ctx, "sending "+req.Op, err)
	}
	ac.stats.frames.Add(1)
	ac.total.frames.Add(1)
	if resetAfter {
		return Frame{}, ac.fail(ctx, req.Op, errFaultInjected)
	}
	var resp Frame
	if err := ac.fc.ReadFrame(&resp); err != nil {
		return Frame{}, ac.fail(ctx, "reading "+req.Op+" reply", err)
	}
	if resp.ID != req.ID {
		return Frame{}, ac.fail(ctx, req.Op, fmt.Errorf("reply id %d for request %d", resp.ID, req.ID))
	}
	if resp.Err != "" {
		return Frame{}, &agentError{name: ac.name, msg: resp.Err}
	}
	if !resp.OK {
		return Frame{}, fmt.Errorf("transport: agent %s sent unacknowledged %s reply", ac.name, req.Op)
	}
	return resp, nil
}

// errFaultInjected is the cause an injected drop/reset fault reports; it
// reaches callers wrapped in the usual transient classification.
var errFaultInjected = errors.New("injected fault")

// agentError is an error the agent itself reported in a reply frame. The
// control channel remains intact and usable — unlike a channel death, the
// agent is alive and answered. pushUpgrade uses the distinction to retry
// chunk pushes the agent rejected (corrupt bytes in flight): the content
// address caught the damage, and a clean re-push is cheap.
type agentError struct{ name, msg string }

func (e *agentError) Error() string { return "transport: agent " + e.name + ": " + e.msg }

// bookFault counts one injected fault on this channel and server-wide.
func (ac *agentConn) bookFault() {
	ac.stats.faults.Add(1)
	ac.total.faults.Add(1)
}

// addChunkAccounting books one manifest negotiation's hit/miss split.
func (ac *agentConn) addChunkAccounting(hits, misses int64) {
	ac.stats.hits.Add(hits)
	ac.total.hits.Add(hits)
	ac.stats.misses.Add(misses)
	ac.total.misses.Add(misses)
}

// Server is the vendor-side endpoint agents register with.
type Server struct {
	ln net.Listener

	// registry is the hash-sharded agent index: RPC dispatch, registration,
	// and the WaitForAgents/WaitForAgent waiters all go through it, so no
	// single mutex serializes a 100k-agent fleet.
	registry *Registry[*agentConn]

	mu sync.Mutex
	// pending holds connections whose registration handshake is still in
	// flight, so Close can tear them down too.
	pending map[net.Conn]bool
	// pendingSem bounds how many registration handshakes run at once: the
	// accept loop blocks when the bound is hit, which turns a registration
	// storm into natural TCP backpressure instead of an unbounded goroutine
	// and FD spike.
	pendingSem chan struct{}
	// done is closed by Close: registry waiters return immediately and
	// new operations are refused with ErrServerClosed.
	done   chan struct{}
	closed bool
	// serving tracks the accept loop and every in-flight registration
	// goroutine, so Close can wait for them instead of leaking.
	serving sync.WaitGroup

	Timeout time.Duration

	// ProfileParallelism bounds how many agents are fingerprinted
	// concurrently during fleet profiling (0 means
	// profile.DefaultParallelism, 1 means serial). Each agent has its own
	// channel, so fan-out never interleaves frames on one connection; the
	// collected order — and therefore the clustering — is identical at
	// any setting.
	ProfileParallelism int

	// InlinePayloads restores the legacy wire format: test and integrate
	// requests carry the complete upgrade (all file data, base64 inside
	// JSON) in every frame. The default is content-addressed chunked
	// distribution, where frames carry a manifest and only cache-missed
	// chunk bytes ever cross the wire.
	InlinePayloads bool

	// DisablePeers turns off peer hinting: every missed chunk is pushed
	// by the vendor, as before the peer tier existed. Agents that do not
	// run a peer server are simply never hinted, so this switch matters
	// only for measurement (BenchmarkSwarm's O(fleet) baseline).
	DisablePeers bool

	// Faults, when set, injects deterministic chaos on every vendor-side
	// call: drops, delays, corrupt chunk payloads, resets, and scheduled
	// agent crashes per the injector's FaultPlan. Set it before deploying;
	// production servers leave it nil.
	Faults *FaultInjector

	// OnProfileDelta, when set, receives watch-mode agents' OpProfileDelta
	// pushes. Returning resync=true asks the agent to re-send its complete
	// profile (Status "resync"); an error refuses the push. Unset, the
	// server refuses deltas — drift detection is opt-in vendor wiring
	// (mirage-vendor bridges this to a fleetwatch.Monitor). Set it before
	// serving starts.
	OnProfileDelta func(req *ProfileDeltaReq) (resync bool, err error)

	// Telemetry, when set, receives per-op RPC latency and frame-byte
	// histograms, profile-delta sizes and injected-delay accounting, and
	// exports registry occupancy and the transfer counters (nil is a
	// no-op). RPC spans additionally land in whatever rollout trace rides
	// the call's context, independent of this registry. Set it before the
	// first RPC or delta push: that registers the families and caches the
	// hot-path handles.
	Telemetry *telemetry.Registry

	// telemOnce caches the RPC hot-path histogram families so each call
	// skips the registry's by-name lookup (a global mutex).
	telemOnce  sync.Once
	rpcLatency *telemetry.Family
	rpcBytes   *telemetry.Family

	// rollbackMode marks that pushes currently restore members to the
	// baseline version (Controller.Rollback is driving the fleet), so
	// resolved manifest chunks are booked as ChunksRolledBack.
	rollbackMode atomic.Bool

	// peerMu guards peers, the chunk-location index behind peer hinting.
	peerMu sync.Mutex
	peers  *peerIndex

	// dist is the vendor-side chunk store backing manifest distribution;
	// it accumulates across upgrades, so a corrected re-release shares
	// every chunk with the version it fixes.
	dist *distrib.Store

	// stats aggregates transfer counters across all agent connections,
	// surviving reconnects and replacements.
	stats statsCounters
}

// controlBufSize sizes the vendor's read and write buffers on each agent
// control channel. Control frames are a few hundred bytes, larger ones
// (a full manifest, a chunk body) simply take several buffer fills, and
// at 10k agents every per-connection kilobyte is 10 MB.
const controlBufSize = 1024

// DefaultMaxPending bounds concurrent registration handshakes per accept
// loop when ListenOpts.MaxPending is zero.
const DefaultMaxPending = 1024

// ListenOpts tunes the control-plane scaling knobs fixed at listen time.
type ListenOpts struct {
	// Shards is the agent-registry shard count; <= 0 selects
	// DefaultShards (GOMAXPROCS-derived, rounded to a power of two).
	Shards int
	// MaxPending bounds in-flight registration handshakes; <= 0 selects
	// DefaultMaxPending.
	MaxPending int
}

// Listen starts the vendor server on addr (use "127.0.0.1:0" in tests) and
// begins accepting agent registrations.
func Listen(addr string) (*Server, error) {
	return ListenWith(addr, ListenOpts{})
}

// ListenWith is Listen with explicit registry sharding and handshake
// admission bounds.
func ListenWith(addr string, opts ListenOpts) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	maxPending := opts.MaxPending
	if maxPending <= 0 {
		maxPending = DefaultMaxPending
	}
	s := &Server{
		ln:         ln,
		registry:   NewRegistry[*agentConn](opts.Shards),
		pending:    make(map[net.Conn]bool),
		pendingSem: make(chan struct{}, maxPending),
		done:       make(chan struct{}),
		Timeout:    DefaultRPCTimeout,
		dist:       distrib.NewStore(),
		peers:      newPeerIndex(),
	}
	s.serving.Add(1)
	go s.acceptLoop()
	return s, nil
}

// ChunkStore returns the vendor-side chunk store.
func (s *Server) ChunkStore() *distrib.Store { return s.dist }

// Stats returns the server-wide transfer counters, aggregated across all
// agent connections past and present.
func (s *Server) Stats() Stats { return s.stats.snapshot() }

// AgentStats returns the transfer counters of the named agent's current
// connection.
func (s *Server) AgentStats(name string) (Stats, bool) {
	ac, ok := s.registry.Get(name)
	if !ok {
		return Stats{}, false
	}
	return ac.stats.snapshot(), true
}

// ShardSizes returns the registry's per-shard agent counts — the /metrics
// feed for registry balance and size.
func (s *Server) ShardSizes() []int { return s.registry.ShardSizes() }

// TransferSnapshot is Stats under the name deploy.Controller.Transfer
// expects, so the controller can record per-rollout deltas in the Outcome.
func (s *Server) TransferSnapshot() deploy.TransferStats { return s.Stats() }

// SetRollbackMode flips rollback accounting: while on, every manifest
// chunk resolved by a push is additionally booked as ChunksRolledBack —
// the same machinery moving the fleet backwards. Controller.RollbackMode
// is the hook that drives it around a fleet rollback.
func (s *Server) SetRollbackMode(on bool) { s.rollbackMode.Store(on) }

// MarkPeerEligible clears the named agents to serve chunks to their
// peers. The deployment controller calls it as each wave's gate passes
// (Controller.GatedMembers): a gated member has validated and integrated
// the upgrade, so its chunk cache is both complete and trustworthy-fresh
// — exactly the population the staging order guarantees exists before any
// later wave asks.
func (s *Server) MarkPeerEligible(names []string) {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	for _, n := range names {
		s.peers.eligible[n] = true
	}
}

// AddPeerSource registers an external peer chunk source by hand: name is
// recorded as eligible, reachable at addr, and holding the given chunk
// addresses. It is the seeding/test hook — degradation tests point it at
// fake peers that die or serve corrupt bytes, and a pre-seeded mirror can
// be injected the same way.
func (s *Server) AddPeerSource(name, addr string, addrs []uint64) {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	s.peers.addrs[name] = addr
	s.peers.eligible[name] = true
	s.peers.markHeld(name, addrs)
}

// peerHintsFor returns up to MaxPeerHints peer addresses likely to hold
// some of need, best coverage first; nil when hinting is off or no
// eligible peer covers anything.
func (s *Server) peerHintsFor(requester string, need []uint64) []string {
	if s.DisablePeers {
		return nil
	}
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	return s.peers.hints(requester, need)
}

// markPeerHeld records that name resolved man completely — every address
// in it is now in the agent's cache. This passive bookkeeping is the only
// feed the chunk-location index has (besides AddPeerSource); no RPC ever
// asks an agent what it holds.
func (s *Server) markPeerHeld(name string, man *WireManifest) {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	s.peers.markHeld(name, man.Addrs())
}

// creditPeerResult books one OpPeerFetch round into the transfer
// counters: the fetching agent's peer-in bytes and chunk hits, and each
// serving agent's peer-out bytes (resolved from the reported peer
// address; an unresolvable server — an AddPeerSource fake, or an agent
// that re-registered meanwhile — still counts toward the server totals).
func (s *Server) creditPeerResult(ac *agentConn, res *PeerResult) {
	if res == nil || res.Bytes == 0 {
		return
	}
	ac.stats.peerIn.Add(res.Bytes)
	ac.total.peerIn.Add(res.Bytes)
	ac.stats.peerHits.Add(int64(res.Chunks))
	ac.total.peerHits.Add(int64(res.Chunks))
	for addr, n := range res.Served {
		s.peerMu.Lock()
		name, ok := s.peers.nameByAddr(addr)
		s.peerMu.Unlock()
		if ok {
			if server, live := s.registry.Get(name); live {
				server.stats.peerOut.Add(n)
			}
		}
		s.stats.peerOut.Add(n)
	}
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down: the listener closes, every agent channel
// is torn down, registry waiters (WaitForAgents/WaitForAgent) wake
// immediately, and in-flight Calls fail with the typed ErrServerClosed
// instead of a spoofed agent-gone error. Close blocks until the accept
// loop and every registration goroutine have exited — a closed server
// leaks nothing. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	err := s.ln.Close()
	for conn := range s.pending {
		conn.Close()
	}
	s.mu.Unlock()
	// done is closed, so a registration racing this sweep re-checks after
	// publishing itself and tears its own connection down; waiters watch
	// done and wake on their own.
	for _, ac := range s.registry.Clear() {
		ac.conn.Close()
	}
	s.serving.Wait()
	return err
}

// Shutdown is Close under the name net/http made idiomatic.
func (s *Server) Shutdown() error { return s.Close() }

// isClosed reports whether Close has begun.
func (s *Server) isClosed() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

func (s *Server) acceptLoop() {
	defer s.serving.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if err := s.serveConn(conn); err != nil {
			conn.Close()
			return
		}
	}
}

// ServeConn hands the server one side of an already-established connection
// to run the normal registration handshake and agent protocol on — the
// injection point for transports the listener never sees (net.Pipe fleets
// in the scale harness, pre-dialed sockets). It obeys the same pending
// handshake bound as accepted connections and refuses with ErrServerClosed
// after Close.
func (s *Server) ServeConn(conn net.Conn) error {
	if err := s.serveConn(conn); err != nil {
		conn.Close()
		return err
	}
	return nil
}

// serveConn admits conn under the pending-handshake bound and spawns its
// registration goroutine; the caller owns conn on error.
func (s *Server) serveConn(conn net.Conn) error {
	select {
	case s.pendingSem <- struct{}{}:
	case <-s.done:
		return ErrServerClosed
	}
	// The closed check and serving.Add share s.mu with Close, so a
	// registration goroutine is either covered by Close's serving.Wait or
	// refused — never started after Wait returned.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.pendingSem
		return ErrServerClosed
	}
	s.serving.Add(1)
	s.mu.Unlock()
	go func() {
		defer func() { <-s.pendingSem }()
		s.register(conn)
	}()
	return nil
}

// register reads the agent's registration frame and records the channel.
// The handshaking connection is tracked in pending so Close tears it down
// instead of waiting out the handshake deadline.
func (s *Server) register(conn net.Conn) {
	defer s.serving.Done()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.pending[conn] = true
	s.mu.Unlock()
	unpend := func() {
		s.mu.Lock()
		delete(s.pending, conn)
		s.mu.Unlock()
	}
	fc := newFrameConn(bufio.NewReaderSize(conn, controlBufSize), nil)
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		unpend()
		conn.Close()
		return
	}
	var hello Frame
	if err := fc.ReadFrame(&hello); err != nil {
		unpend()
		conn.Close()
		return
	}
	if hello.Op == OpProfileDelta && hello.Delta != nil {
		// A watch-mode agent's short-lived delta push: meter the wire
		// length of the frame just read, handle, answer one frame, and
		// close — it never becomes a control channel.
		s.rpcHists() // registers the transport's families on first use
		kind := "delta"
		if hello.Delta.Full {
			kind = "full"
		}
		s.deltaBytes().Observe(kind, int64(fc.wireLen))
		resp := Frame{ID: hello.ID}
		if h := s.OnProfileDelta; h == nil {
			resp.Err = "vendor accepts no profile deltas"
		} else if resync, err := h(hello.Delta); err != nil {
			resp.Err = err.Error()
		} else {
			resp.OK = true
			if resync {
				resp.Status = StatusResync
			}
		}
		bw := bufio.NewWriter(conn)
		fc.bw = bw
		conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if err := fc.WriteFrame(&resp); err == nil {
			bw.Flush()
		}
		unpend()
		conn.Close()
		return
	}
	if hello.Op != OpRegister || hello.Register == nil {
		unpend()
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	st := &statsCounters{}
	bw := bufio.NewWriterSize(&countingWriter{w: conn, conn: st, total: &s.stats}, controlBufSize)
	fc.bw = bw
	ac := &agentConn{
		name: hello.Register.Machine, conn: conn, srv: s,
		bw: bw, fc: fc,
		stats: st, total: &s.stats,
	}
	if hello.Register.Peer != "" {
		s.peerMu.Lock()
		s.peers.addrs[ac.name] = hello.Register.Peer
		s.peerMu.Unlock()
	}
	s.mu.Lock()
	delete(s.pending, conn)
	if s.closed {
		// Lost the race with Close: this channel must not outlive the
		// registry Close already emptied.
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.mu.Unlock()
	if old, dup := s.registry.Put(ac.name, ac); dup {
		// Mark the superseded channel replaced BEFORE closing its socket,
		// so a racing in-flight call classifies as ErrAgentReplaced rather
		// than failing with a raw read error.
		old.replaced.Store(true)
		old.conn.Close()
	}
	if s.isClosed() {
		// Close began after the pending check: its registry sweep may have
		// run before our Put landed, so undo it ourselves.
		s.registry.RemoveIf(ac.name, func(cur *agentConn) bool { return cur == ac })
		conn.Close()
	}
}

// drop removes ac from the registry if it is still the current channel
// for its name (a replacement must not be evicted by its predecessor's
// death throes).
func (s *Server) drop(ac *agentConn) {
	s.registry.RemoveIf(ac.name, func(cur *agentConn) bool { return cur == ac })
}

// DropAgent forcibly closes the named agent's control channel and removes
// it from the registry — the vendor-side handle for administrative
// disconnection and for fault injection in churn tests. A reconnecting
// agent will simply redial and re-register under the same identity.
func (s *Server) DropAgent(name string) bool {
	ac, ok := s.registry.Remove(name)
	if !ok {
		return false
	}
	ac.conn.Close()
	return true
}

// Agents returns the names of registered agents, sorted.
func (s *Server) Agents() []string {
	return s.registry.Names()
}

// WaitForAgents blocks until n agents are registered, the timeout
// elapses, or the server is closed; it returns the registered count.
// The waiter parks on a count threshold in the sharded registry and is
// woken exactly once — by the registration that reaches n — instead of
// once per registry change.
func (s *Server) WaitForAgents(n int, timeout time.Duration) int {
	return s.registry.WaitCount(n, timeout, s.done)
}

// WaitForAgent blocks until the named agent is registered, the timeout
// elapses, or the server is closed — the natural companion to
// reconnecting agents ("wait for the machine to come back before
// proceeding"). The waiter parks on the shard owning the name; unrelated
// registrations never wake it.
func (s *Server) WaitForAgent(name string, timeout time.Duration) bool {
	return s.registry.WaitName(name, timeout, s.done)
}

func (s *Server) agent(name string) (*agentConn, error) {
	if s.isClosed() {
		return nil, fmt.Errorf("transport: no agent %q: %w", name, ErrServerClosed)
	}
	ac, ok := s.registry.Get(name)
	if !ok {
		return nil, fmt.Errorf("transport: no agent registered as %q: %w", name, ErrAgentGone)
	}
	return ac, nil
}

// Ping performs a lightweight liveness probe on the named agent's control
// channel: one tiny frame, no payload. It is how the vendor distinguishes
// "machine reachable" from "machine failing work" without spending a
// validation run.
func (s *Server) Ping(ctx context.Context, name string) error {
	ac, err := s.agent(name)
	if err != nil {
		return err
	}
	_, err = ac.call(ctx, Frame{Op: OpPing}, s.Timeout)
	return err
}

// Identify asks the named agent to run local resource identification.
func (s *Server) Identify(ctx context.Context, machineName, app string, workloads [][]string) ([]string, error) {
	ac, err := s.agent(machineName)
	if err != nil {
		return nil, err
	}
	resp, err := ac.call(ctx, Frame{Op: OpIdentify, Identify: &IdentifyReq{App: app, Workloads: workloads}}, s.Timeout)
	if err != nil {
		return nil, err
	}
	return resp.Resources, nil
}

// Record asks the named agent to record a baseline trace.
func (s *Server) Record(ctx context.Context, machineName, app string, inputs []string) (string, error) {
	ac, err := s.agent(machineName)
	if err != nil {
		return "", err
	}
	resp, err := ac.call(ctx, Frame{Op: OpRecord, Record: &RecordReq{App: app, Inputs: inputs}}, s.Timeout)
	if err != nil {
		return "", err
	}
	return resp.Status, nil
}

// fpPayload memoizes the serialized fingerprint request body shared by
// every agent of one profiling fan-out. The body — resource references,
// registry configuration, and above all the vendor item list — is
// identical across agents, so it is marshalled once per (app, vendor set)
// and the raw bytes are reused across the whole fleet instead of being
// re-serialized per connection.
type fpPayload struct {
	refs []string
	reg  RegistryConfig

	mu     sync.Mutex
	app    string
	vendor *resource.Set
	raw    json.RawMessage
}

func (p *fpPayload) rawFor(app string, vendor *resource.Set) (json.RawMessage, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.raw == nil || p.app != app || p.vendor != vendor {
		b, err := json.Marshal(&FingerprintReq{
			App: app, Refs: p.refs, Registry: p.reg, VendorItems: ItemsToWire(vendor),
		})
		if err != nil {
			return nil, fmt.Errorf("transport: encoding fingerprint request: %w", err)
		}
		p.app, p.vendor, p.raw = app, vendor, b
	}
	return p.raw, nil
}

// agentSource exposes one registered agent as a profile.Source: Profile
// performs a fingerprint RPC on the agent's channel. The resource
// references and registry configuration are fixed per collection, and the
// request body is shared with every sibling source of the same fan-out.
type agentSource struct {
	s       *Server
	name    string
	payload *fpPayload
}

// Name implements profile.Source.
func (as *agentSource) Name() string { return as.name }

// Profile implements profile.Source over the wire.
func (as *agentSource) Profile(ctx context.Context, app string, vendor *resource.Set) (profile.Machine, error) {
	ac, err := as.s.agent(as.name)
	if err != nil {
		return profile.Machine{}, err
	}
	raw, err := as.payload.rawFor(app, vendor)
	if err != nil {
		return profile.Machine{}, err
	}
	resp, err := ac.call(ctx, Frame{Op: OpFingerprint, Fingerprint: raw}, as.s.Timeout)
	if err != nil {
		return profile.Machine{}, err
	}
	diff := ItemsFromWire(resp.Diff)
	return profile.Machine{
		Name:        as.name,
		ParsedDiff:  diff.OfKind(resource.Parsed),
		ContentDiff: diff.OfKind(resource.Content),
		AppSet:      resp.AppSet,
	}, nil
}

// ProfileSources returns one profile.Source per registered agent, in
// sorted name order — the remote half of the shared profiling pipeline.
// All sources share one lazily serialized request payload.
func (s *Server) ProfileSources(refs []string, reg RegistryConfig) []profile.Source {
	payload := &fpPayload{refs: refs, reg: reg}
	names := s.Agents()
	out := make([]profile.Source, len(names))
	for i, n := range names {
		out[i] = &agentSource{s: s, name: n, payload: payload}
	}
	return out
}

// CollectProfiles gathers every registered agent's diff profile for app.
// The per-agent fingerprint RPCs fan out concurrently on the shared
// profile pipeline (bounded by s.ProfileParallelism), with deterministic
// sorted-name output order; a failure names the failing agent.
func (s *Server) CollectProfiles(ctx context.Context, app string, refs []string, reg RegistryConfig, vendorItems *resource.Set) ([]profile.Machine, error) {
	return profile.Collect(ctx, s.ProfileSources(refs, reg), app, vendorItems, s.ProfileParallelism)
}

// FingerprintAll collects item diffs from every registered agent for app,
// as clustering inputs. See CollectProfiles for concurrency and ordering.
func (s *Server) FingerprintAll(ctx context.Context, app string, refs []string, reg RegistryConfig, vendorItems *resource.Set) ([]cluster.MachineFingerprint, error) {
	ms, err := s.CollectProfiles(ctx, app, refs, reg, vendorItems)
	if err != nil {
		return nil, err
	}
	return profile.Fingerprints(ms), nil
}

// RemoteNode exposes a registered agent as a deploy.Node, so the staged
// deployment controller drives networked machines exactly like local ones.
type RemoteNode struct {
	s    *Server
	name string
}

// Node returns the deploy.Node for a registered agent.
func (s *Server) Node(name string) *RemoteNode {
	return &RemoteNode{s: s, name: name}
}

// Name implements deploy.Node.
func (r *RemoteNode) Name() string { return r.name }

// upgradeFrame builds the test/integrate request frame.
func upgradeFrame(op string, ur UpgradeReq) Frame {
	req := Frame{Op: op}
	switch op {
	case OpTest:
		req.Test = &ur
	case OpIntegrate:
		req.Integrate = &ur
	}
	return req
}

// pushUpgrade performs one test or integrate RPC on the agent. In inline
// mode the complete upgrade travels in the frame. In chunked mode the
// frame carries only the manifest — in full the first time this
// connection sees it, by signature once the agent has acknowledged it
// (an agent that lost it answers NeedManifest and gets it in full
// again). If the agent reports missing chunks,
// the peer tier is tried first (a directed OpPeerFetch against hinted
// gated peers), the remainder is pushed as an OpFetchChunks binary chunk
// frame, and the request is re-issued; the manifest is small, so the retry costs a few
// hundred bytes, never a payload re-send. A manifest that resolves
// completely marks its addresses held by the agent in the chunk-location
// index, feeding future peer hints.
func (s *Server) pushUpgrade(ctx context.Context, name, op string, up *pkgmgr.Upgrade) (Frame, error) {
	ac, err := s.agent(name)
	if err != nil {
		return Frame{}, err
	}
	if s.InlinePayloads {
		w := UpgradeToWire(up)
		return ac.call(ctx, upgradeFrame(op, UpgradeReq{Upgrade: &w}), s.Timeout)
	}
	man := s.dist.Manifest(up)
	raw, err := man.JSON()
	if err != nil {
		return Frame{}, fmt.Errorf("transport: encoding manifest of %s: %w", up.ID, err)
	}
	first := true
	attempts := 3
	if s.Faults != nil {
		// Under injected chaos a push may be corrupted several times in a
		// row; each rejection costs one manifest re-issue (a few hundred
		// bytes), so buying headroom here is cheap.
		attempts = 8
	}
	for attempt := 0; attempt < attempts; attempt++ {
		req := UpgradeReq{ManifestSig: man.Sig}
		full := ac.ackedSig.Load() != man.Sig
		if full {
			req.Manifest = raw
		}
		resp, err := ac.call(ctx, upgradeFrame(op, req), s.Timeout)
		if err != nil {
			return Frame{}, err
		}
		if resp.NeedManifest {
			if full {
				return Frame{}, fmt.Errorf("transport: agent %s asked again for the manifest of %s", name, up.ID)
			}
			ac.ackedSig.CompareAndSwap(man.Sig, 0)
			continue
		}
		if full {
			ac.ackedSig.Store(man.Sig)
		}
		if first {
			// The first response fixes the hit/miss split for this push;
			// the post-fetch retry re-resolves the same chunks and must
			// not be double-counted. NeedChunks is deduplicated, so count
			// misses per manifest *reference*: an address the agent lacks
			// that appears twice is two missed lookups, not one miss and
			// one phantom hit.
			needed := make(map[uint64]bool, len(resp.NeedChunks))
			for _, a := range resp.NeedChunks {
				needed[a] = true
			}
			var miss int64
			for _, f := range man.Files {
				for _, ref := range f.Chunks {
					if needed[ref.Hash] {
						miss++
					}
				}
			}
			ac.addChunkAccounting(int64(man.ChunkCount())-miss, miss)
			first = false
		}
		if len(resp.NeedChunks) == 0 {
			s.markPeerHeld(name, man)
			if s.rollbackMode.Load() {
				n := int64(man.ChunkCount())
				ac.stats.rolledBack.Add(n)
				ac.total.rolledBack.Add(n)
			}
			return resp, nil
		}
		need := resp.NeedChunks
		hinted := false
		if hints := s.peerHintsFor(name, need); len(hints) > 0 {
			presp, err := ac.call(ctx, Frame{Op: OpPeerFetch,
				PeerFetch: &PeerFetchReq{Addrs: need, Peers: hints}}, s.Timeout)
			if err != nil {
				return Frame{}, err
			}
			s.creditPeerResult(ac, presp.Peer)
			need = presp.NeedChunks
			hinted = true
		}
		if len(need) == 0 {
			// The swarm served everything; re-issue the manifest request,
			// which now resolves from cache.
			continue
		}
		chunks, err := s.dist.Chunks(need)
		if err != nil {
			return Frame{}, fmt.Errorf("transport: agent %s requested %w", name, err)
		}
		var n int64
		for _, ch := range chunks {
			n += int64(len(ch.Data))
		}
		ac.stats.chunkBytes.Add(n)
		ac.total.chunkBytes.Add(n)
		if hinted {
			// These chunks were offered to the peer tier and came back:
			// vendor fallback, the swarm's miss counter.
			ac.stats.fallbacks.Add(int64(len(chunks)))
			ac.total.fallbacks.Add(int64(len(chunks)))
		}
		if _, perr := ac.callBody(ctx, Frame{Op: OpFetchChunks, ChunkMeta: chunkMeta(chunks)}, chunks, s.Timeout); perr != nil {
			// An agent-reported rejection means corrupt bytes in flight
			// (the content address caught them) on an intact channel: spend
			// an attempt re-issuing the manifest, which re-pushes cleanly.
			var ae *agentError
			if errors.As(perr, &ae) {
				continue
			}
			return Frame{}, perr
		}
	}
	return Frame{}, fmt.Errorf("transport: agent %s still missing chunks after fetch", name)
}

// TestUpgrade implements deploy.Node over the wire.
func (r *RemoteNode) TestUpgrade(ctx context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	resp, err := r.s.pushUpgrade(ctx, r.name, OpTest, up)
	if err != nil {
		return nil, err
	}
	if resp.Report == nil {
		return nil, errors.New("transport: agent returned no report")
	}
	return resp.Report, nil
}

// Integrate implements deploy.Node over the wire.
func (r *RemoteNode) Integrate(ctx context.Context, up *pkgmgr.Upgrade) error {
	_, err := r.s.pushUpgrade(ctx, r.name, OpIntegrate, up)
	return err
}

// RemoteClustering is the result of clustering a registered fleet: the
// collected profiles, the raw clustering, and the clusters of deployment
// backed by remote nodes.
type RemoteClustering struct {
	Profiles []profile.Machine
	Clusters []*cluster.Cluster
	Deploy   []*deploy.Cluster
}

// ClusterRemote fingerprints the whole registered fleet concurrently and
// runs the clustering algorithm. It is the same Collect → cluster.Run →
// Assemble pipeline core.Vendor.ClusterFleet runs over a local fleet, so
// a local and a networked fleet with identical fingerprints cluster
// identically.
func (s *Server) ClusterRemote(ctx context.Context, app string, refs []string, reg RegistryConfig, vendorItems *resource.Set, cfg cluster.Config, repsPerCluster int) (*RemoteClustering, error) {
	ms, err := s.CollectProfiles(ctx, app, refs, reg, vendorItems)
	if err != nil {
		return nil, err
	}
	clusters := cluster.Run(cfg, profile.Fingerprints(ms))
	dcs, err := profile.Assemble(clusters, repsPerCluster, func(name string) deploy.Node {
		return s.Node(name)
	})
	if err != nil {
		return nil, err
	}
	return &RemoteClustering{Profiles: ms, Clusters: clusters, Deploy: dcs}, nil
}
