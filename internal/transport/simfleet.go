package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distrib"
	"repro/internal/report"
)

// SimFleet is the scale harness: thousands of protocol-faithful simulated
// agents in one process. Each sim agent speaks the real wire protocol on
// a real connection — registration handshake, manifest negotiation,
// NeedManifest, NeedChunks, binary chunk bodies — but replaces
// the expensive agent internals with the cheapest possible stand-ins:
// validation is a canned successful report instead of a vmtest run,
// integration is a counter bump instead of a package-manager transaction,
// and every agent shares one verifying chunk cache, so an upgrade's bytes
// cross the wire once per fleet instead of once per agent. Manifests are
// shared the same way: each sim agent remembers only the signature of the
// manifest it last received, and the fleet decodes each manifest once.
//
// Two transports:
//
//   - TCP (Addr): each agent dials the vendor like a real one. This is the
//     honest end-to-end configuration ("over real TCP"), and what CI's 10k
//     tier runs — but two sockets per agent makes a 100k fleet hostage to
//     the file-descriptor limit.
//   - Pipes (Server): each agent is one net.Pipe injected straight into
//     the server via ServeConn — zero descriptors, identical protocol and
//     server-side code paths, which is what lets a 100k-member rollout run
//     on an ordinary box.
type SimFleet struct {
	names []string
	cache *distrib.Cache
	opts  SimOptions

	mu     sync.Mutex
	conns  map[string]net.Conn
	closed bool

	// manMu guards manifests, every manifest the fleet decoded, by
	// signature.
	manMu     sync.Mutex
	manifests map[uint64]*WireManifest

	wg         sync.WaitGroup
	tested     atomic.Int64
	integrated atomic.Int64
}

// SimOptions configures StartSimFleet. Exactly one of Server (pipe
// transport) and Addr (TCP transport) must be set.
type SimOptions struct {
	// Prefix names the agents "<Prefix>-000000" …; default "sim".
	Prefix string
	// Cache is the shared chunk cache; nil starts an empty one.
	Cache *distrib.Cache
	// Server injects agents as in-process pipes via Server.ServeConn.
	Server *Server
	// Addr dials each agent over TCP.
	Addr string
	// DialTimeout bounds each TCP dial (default 10s).
	DialTimeout time.Duration
	// Spawn bounds how many agents connect concurrently (default 256) —
	// enough to saturate registration without a 100k-goroutine dial storm.
	Spawn int
	// Faults injects deterministic chaos into every sim agent's serve
	// loop — the fleet-scale counterpart of Agent.Faults.
	Faults *FaultInjector
	// Reconnect redials (or re-pipes) an agent whose session died while
	// the fleet is still open — the sim counterpart of RunWithReconnect,
	// and what lets a fleet under drop/crash chaos converge anyway.
	Reconnect bool
}

// StartSimFleet launches n simulated agents and returns once every
// connection attempt has been made (use Server.WaitForAgents to wait for
// the registrations to land). Close tears the fleet down.
func StartSimFleet(n int, opts SimOptions) (*SimFleet, error) {
	if (opts.Server == nil) == (opts.Addr == "") {
		return nil, fmt.Errorf("transport: SimOptions must set exactly one of Server and Addr")
	}
	prefix := opts.Prefix
	if prefix == "" {
		prefix = "sim"
	}
	if opts.Cache == nil {
		opts.Cache = distrib.NewCache()
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 10 * time.Second
	}
	spawn := opts.Spawn
	if spawn <= 0 {
		spawn = 256
	}
	if spawn > n {
		spawn = n
	}

	f := &SimFleet{cache: opts.Cache, opts: opts, names: make([]string, n),
		conns: make(map[string]net.Conn, n), manifests: make(map[uint64]*WireManifest)}
	for i := range f.names {
		f.names[i] = fmt.Sprintf("%s-%06d", prefix, i)
	}

	var firstErr error
	var errMu sync.Mutex
	sem := make(chan struct{}, spawn)
	var launch sync.WaitGroup
	for i := 0; i < n; i++ {
		launch.Add(1)
		sem <- struct{}{}
		go func(name string) {
			defer func() { <-sem; launch.Done() }()
			conn, err := f.connect(name)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			f.wg.Add(1)
			go f.run(name, conn)
		}(f.names[i])
	}
	launch.Wait()
	if firstErr != nil {
		f.Close()
		return nil, fmt.Errorf("transport: sim fleet launch: %w", firstErr)
	}
	return f, nil
}

// connect establishes one agent connection on the fleet's transport and
// records it so Close can tear it down.
func (f *SimFleet) connect(name string) (net.Conn, error) {
	var conn net.Conn
	if f.opts.Server != nil {
		client, srvEnd := net.Pipe()
		if err := f.opts.Server.ServeConn(srvEnd); err != nil {
			client.Close()
			return nil, err
		}
		conn = client
	} else {
		c, err := net.DialTimeout("tcp", f.opts.Addr, f.opts.DialTimeout)
		if err != nil {
			return nil, err
		}
		conn = c
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("sim fleet closed")
	}
	f.conns[name] = conn
	f.mu.Unlock()
	return conn, nil
}

// run is one agent's session lifecycle: serve until the connection dies
// and, with Reconnect, come back — the way a crashed-and-restarted agent
// redials the vendor.
func (f *SimFleet) run(name string, conn net.Conn) {
	defer f.wg.Done()
	for {
		f.serve(name, conn)
		if !f.opts.Reconnect {
			return
		}
		f.mu.Lock()
		closed := f.closed
		f.mu.Unlock()
		if closed {
			return
		}
		// Pace the redial like a real agent, then retry a few times: the
		// vendor may be mid-teardown of the dead registration.
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			time.Sleep(2 * time.Millisecond)
			if conn, err = f.connect(name); err == nil {
				break
			}
		}
		if err != nil {
			return
		}
	}
}

// Names returns the fleet's agent names in spawn order.
func (f *SimFleet) Names() []string { return f.names }

// Cache returns the shared chunk cache.
func (f *SimFleet) Cache() *distrib.Cache { return f.cache }

// Tested returns how many validations the fleet performed.
func (f *SimFleet) Tested() int64 { return f.tested.Load() }

// Integrated returns how many integrations the fleet performed.
func (f *SimFleet) Integrated() int64 { return f.integrated.Load() }

// Wait blocks until every agent's connection has ended (the vendor
// closed, or Close was called).
func (f *SimFleet) Wait() { f.wg.Wait() }

// Close disconnects every agent and waits for their goroutines.
func (f *SimFleet) Close() {
	f.mu.Lock()
	f.closed = true
	conns := f.conns
	f.conns = nil
	f.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	f.wg.Wait()
}

// serve is one sim agent session: register, then answer vendor RPCs until
// the connection dies. Buffers are deliberately small — at 100k agents
// every per-connection kilobyte is 100MB.
func (f *SimFleet) serve(name string, conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 2048)
	bw := bufio.NewWriterSize(conn, 1024)
	fc := newFrameConn(br, bw)
	if err := fc.WriteFrame(&Frame{Op: OpRegister, Register: &RegisterReq{Machine: name}}); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	// held is the signature of the manifest this session last received.
	var held uint64
	for {
		var req Frame
		if err := fc.ReadFrame(&req); err != nil {
			return
		}
		dieAfter := false
		if fi := f.opts.Faults; fi != nil {
			// Same chaos semantics as Agent.serve: drop/crash kill the
			// session unanswered (after consuming any binary body, which
			// would otherwise desync nothing — the session dies anyway, but
			// handling keeps the cache bookkeeping honest), reset answers
			// never arrive, delay is injected latency.
			switch fi.Next(name, req.Op) {
			case FaultDrop, FaultCrash:
				if req.Op != OpFetchChunks || len(req.ChunkMeta) == 0 {
					return
				}
				dieAfter = true
			case FaultDelay:
				time.Sleep(fi.DelayBy())
			case FaultReset:
				dieAfter = true
			}
		}
		resp, err := f.handle(name, fc, &req, &held)
		if err != nil {
			return // the stream is desynchronized; die like a real agent
		}
		if dieAfter {
			return
		}
		resp.ID = req.ID
		if err := fc.WriteFrame(&resp); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// resolve performs the manifest-or-inline negotiation for a test or
// integrate request: ask for a manifest the session does not hold, report
// what the shared cache is missing, or accept. held is the session's
// one-slot manifest memory.
func (f *SimFleet) resolve(req *UpgradeReq, held *uint64) (id string, reply *Frame) {
	if req.Upgrade != nil {
		return req.Upgrade.ID, nil
	}
	switch {
	case req.Manifest != nil:
		if err := f.learn(req); err != nil {
			return "", &Frame{Err: "sim: " + err.Error()}
		}
		*held = req.ManifestSig
	case req.ManifestSig == 0:
		return "", &Frame{Err: "sim: neither upgrade nor manifest present"}
	case req.ManifestSig != *held:
		return "", &Frame{OK: true, NeedManifest: true}
	}
	f.manMu.Lock()
	man := f.manifests[req.ManifestSig]
	f.manMu.Unlock()
	if miss := f.cache.Missing(man); len(miss) > 0 {
		return man.ID, &Frame{OK: true, NeedChunks: miss}
	}
	return man.ID, nil
}

// learn records the manifest a request carries in the fleet-wide map,
// decoding it only when no agent of the fleet has before.
func (f *SimFleet) learn(req *UpgradeReq) error {
	f.manMu.Lock()
	defer f.manMu.Unlock()
	if _, ok := f.manifests[req.ManifestSig]; ok {
		return nil
	}
	man, err := decodeManifest(req)
	if err != nil {
		return err
	}
	f.manifests[man.Sig] = man
	return nil
}

// handle answers one vendor RPC with the cheapest protocol-correct
// response. An error return means the connection must die (unreadable
// binary body).
func (f *SimFleet) handle(name string, fc *frameConn, req *Frame, held *uint64) (Frame, error) {
	switch req.Op {
	case OpPing:
		return Frame{OK: true}, nil
	case OpTest:
		if req.Test == nil {
			return Frame{Err: "sim: test without payload"}, nil
		}
		id, reply := f.resolve(req.Test, held)
		if reply != nil {
			return *reply, nil
		}
		f.tested.Add(1)
		return Frame{OK: true, Report: &report.Report{
			UpgradeID: id, Machine: name, Success: true,
		}}, nil
	case OpIntegrate:
		if req.Integrate == nil {
			return Frame{Err: "sim: integrate without payload"}, nil
		}
		if _, reply := f.resolve(req.Integrate, held); reply != nil {
			return *reply, nil
		}
		f.integrated.Add(1)
		return Frame{OK: true}, nil
	case OpFetchChunks:
		if len(req.ChunkMeta) > 0 {
			// Binary body: the bytes follow the header on the stream and
			// MUST be consumed even on a bad chunk. A digest rejection
			// leaves the drained stream intact, so — like the real agent —
			// it travels back in the reply rather than killing the session
			// (if the error was I/O, the write below fails and the session
			// ends anyway).
			if err := fc.ReadChunkBody(req.ChunkMeta, f.cache.Add); err != nil {
				return Frame{Err: err.Error()}, nil
			}
			return Frame{OK: true}, nil
		}
		return Frame{Err: "fetch_chunks payload missing"}, nil
	case OpPeerFetch:
		// Sim agents run no peer servers; decline everything and let the
		// vendor fall back to its own push.
		var need []uint64
		if req.PeerFetch != nil {
			need = req.PeerFetch.Addrs
		}
		return Frame{OK: true, NeedChunks: need}, nil
	case OpFingerprint:
		return Frame{OK: true, AppSet: "sim"}, nil
	case OpIdentify:
		return Frame{OK: true}, nil
	case OpRecord:
		return Frame{OK: true, Status: "recorded"}, nil
	default:
		return Frame{Err: "sim: unsupported op " + req.Op}, nil
	}
}
