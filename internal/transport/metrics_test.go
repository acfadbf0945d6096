package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestTransportFamiliesExported checks the transport exports its own
// /metrics families on Server.Telemetry: after one chunked push every
// registry and transfer family renders, and the bytes counter reads the
// same atomics as Stats.
func TestTransportFamiliesExported(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, _ := startFleet(t, userMachine("metrics-node", false))
	s.Telemetry = reg
	if err := s.Node("metrics-node").Integrate(context.Background(), mysql5Wire()); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	text := b.String()
	gauges := "mirage_registry_agents_total mirage_registry_agents"
	counters := "mirage_transfer_frames_total mirage_transfer_bytes_total mirage_transfer_chunk_bytes_total " +
		"mirage_transfer_chunk_hits_total mirage_transfer_chunk_misses_total mirage_peer_bytes_total " +
		"mirage_peer_hits_total mirage_peer_fallbacks_total mirage_rollback_chunks_total mirage_faults_injected_total"
	for typ, names := range map[string]string{"gauge": gauges, "counter": counters} {
		for _, name := range strings.Fields(names) {
			if !strings.Contains(text, "# TYPE "+name+" "+typ+"\n") {
				t.Fatalf("metrics missing %s family %s:\n%s", typ, name, text)
			}
		}
	}
	sent := s.Stats().BytesSent
	if want := "\nmirage_transfer_bytes_total " + strconv.FormatFloat(float64(sent), 'g', -1, 64) + "\n"; sent == 0 || !strings.Contains(text, want) {
		t.Fatalf("metrics missing %q (Stats().BytesSent = %d):\n%s", want, sent, text)
	}
}

// TestDeltaBytesMetered checks the server books each profile-delta push
// under mirage_delta_bytes at the wire length of the frame it read.
func TestDeltaBytesMetered(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.Telemetry = reg
	s.OnProfileDelta = func(*ProfileDeltaReq) (bool, error) { return false, nil }
	a := NewAgent(userMachine("delta-node", false))
	deltaBytes := reg.Histogram("mirage_delta_bytes", "", "kind", 1)

	for _, kind := range []string{"delta", "full"} {
		req := &ProfileDeltaReq{Machine: "delta-node", App: "mysql", Sig: 7,
			Added: []WireItem{{Key: "my.cnf", Hash: 1}}, Full: kind == "full"}
		var raw bytes.Buffer
		bw := bufio.NewWriter(&raw)
		if err := newFrameConn(nil, bw).WriteFrame(&Frame{ID: 1, Op: OpProfileDelta, Delta: req}); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		if _, err := a.pushDelta(s.Addr(), req); err != nil {
			t.Fatal(err)
		}
		snap := deltaBytes.With(kind).Snapshot()
		if snap.Count != 1 || snap.Sum != int64(raw.Len()) {
			t.Fatalf("kind=%s booked count=%d sum=%d, want 1 and %d", kind, snap.Count, snap.Sum, raw.Len())
		}
	}
}

// TestFetchChunksWithoutBody sends an OpFetchChunks frame that announces
// no chunk body to a real agent and to a sim agent: both must answer
// with an error reply.
func TestFetchChunksWithoutBody(t *testing.T) {
	s, _ := startFleet(t, userMachine("bare-node", false))
	fleet, err := StartSimFleet(1, SimOptions{Prefix: "bare-sim", Server: s})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	if got := s.WaitForAgents(2, 5*time.Second); got != 2 {
		t.Fatalf("only %d/2 agents registered", got)
	}
	for _, name := range []string{"bare-node", fleet.Names()[0]} {
		ac, err := s.agent(name)
		if err != nil {
			t.Fatal(err)
		}
		var ae *agentError
		if _, err := ac.call(context.Background(), Frame{Op: OpFetchChunks}, s.Timeout); !errors.As(err, &ae) {
			t.Fatalf("%s: bodiless fetch_chunks = %v, want an agent error reply", name, err)
		}
	}
}
