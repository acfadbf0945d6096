package transport

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/pkgmgr"
)

// Tests for the binary chunk framing: chunk payload must cross the wire
// byte-for-byte (no base64 expansion), the legacy JSON encoding must keep
// working behind Server.JSONChunks, and both must deliver bit-identical
// files.

// pushBigUpgrade deploys a fresh large payload to one agent and returns
// the connection's transfer stats and the machine.
func pushBigUpgrade(t *testing.T, jsonChunks bool, size int) (Stats, *machine.Machine) {
	t.Helper()
	m := userMachine("frame-node", false)
	s, _ := startFleet(t, m)
	s.JSONChunks = jsonChunks

	up := &pkgmgr.Upgrade{
		ID: "mysql-frame-5",
		Pkg: &pkgmgr.Package{Name: "mysql", Version: "5.0.22", Files: []*machine.File{
			{Path: apps.MySQLExec, Type: machine.TypeExecutable, Data: bigData(11, size), Version: "5.0.22"},
		}},
		Replaces: "4.1.22",
	}
	rep, err := s.Node("frame-node").TestUpgrade(context.Background(), up)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Success {
		t.Fatalf("test failed: %+v", rep)
	}
	if err := s.Node("frame-node").Integrate(context.Background(), up); err != nil {
		t.Fatal(err)
	}
	if f := m.ReadFile(apps.MySQLExec); f == nil || !bytes.Equal(f.Data, bigData(11, size)) {
		t.Fatal("delivered file differs from the vendor's")
	}
	st, ok := s.AgentStats("frame-node")
	if !ok {
		t.Fatal("no stats for registered agent")
	}
	return st, m
}

// TestBinaryFramingZeroExpansion asserts the headline wire property: with
// the binary chunk frame, total bytes on the wire exceed the raw chunk
// payload only by header overhead — nothing close to base64's 4/3. The
// legacy JSON mode pays that expansion, which is the control making the
// assertion meaningful.
func TestBinaryFramingZeroExpansion(t *testing.T) {
	const size = 256 * 1024

	binSt, _ := pushBigUpgrade(t, false, size)
	if binSt.ChunkBytesSent < size {
		t.Fatalf("binary push moved %d chunk bytes for a %d payload — test is vacuous", binSt.ChunkBytesSent, size)
	}
	// Headers: a ChunkMeta entry and the manifest frames per push, tens of
	// bytes per chunk against ~4KB chunks. An eighth of the payload is a
	// generous ceiling that base64 (+33%) cannot hide under.
	binOverhead := binSt.BytesSent - binSt.ChunkBytesSent
	if binOverhead > binSt.ChunkBytesSent/8 {
		t.Fatalf("binary framing overhead = %d bytes on %d chunk bytes, want < 1/8",
			binOverhead, binSt.ChunkBytesSent)
	}

	jsonSt, _ := pushBigUpgrade(t, true, size)
	jsonOverhead := jsonSt.BytesSent - jsonSt.ChunkBytesSent
	if jsonOverhead < jsonSt.ChunkBytesSent/4 {
		t.Fatalf("json control moved %d overhead bytes on %d chunk bytes — base64 expansion missing, control broken",
			jsonOverhead, jsonSt.ChunkBytesSent)
	}
}

// TestJSONChunksCompat keeps the legacy chunk encoding deployable
// end-to-end (the -json-chunks flag): correctness is identical, only the
// wire expansion differs.
func TestJSONChunksCompat(t *testing.T) {
	st, m := pushBigUpgrade(t, true, 64*1024)
	if st.ChunkBytesSent == 0 || st.ChunkMisses == 0 {
		t.Fatalf("stats = %+v, want chunk traffic", st)
	}
	if ref, _ := m.Package("mysql"); ref.Version != "5.0.22" {
		t.Fatalf("machine at %s", ref.Version)
	}
}
