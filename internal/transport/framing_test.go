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
// byte-for-byte (no base64 expansion) and deliver bit-identical files.

// pushBigUpgrade deploys a fresh large payload to one agent and returns
// the connection's transfer stats.
func pushBigUpgrade(t *testing.T, size int) Stats {
	t.Helper()
	m := userMachine("frame-node", false)
	s, _ := startFleet(t, m)

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
	return st
}

// TestBinaryFramingZeroExpansion asserts the headline wire property: with
// the binary chunk frame, total bytes on the wire exceed the raw chunk
// payload only by header overhead — nothing close to base64's 4/3.
func TestBinaryFramingZeroExpansion(t *testing.T) {
	const size = 256 * 1024

	binSt := pushBigUpgrade(t, size)
	if binSt.ChunkBytes < size {
		t.Fatalf("binary push moved %d chunk bytes for a %d payload — test is vacuous", binSt.ChunkBytes, size)
	}
	// Headers: a ChunkMeta entry and the manifest frames per push, tens of
	// bytes per chunk against ~4KB chunks. An eighth of the payload is a
	// generous ceiling that base64 (+33%) cannot hide under.
	binOverhead := binSt.BytesSent - binSt.ChunkBytes
	if binOverhead > binSt.ChunkBytes/8 {
		t.Fatalf("binary framing overhead = %d bytes on %d chunk bytes, want < 1/8",
			binOverhead, binSt.ChunkBytes)
	}
}
