package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/distrib"
	"repro/internal/pkgmgr"
	"repro/internal/report"
)

// Tests for the binary frame codec: every field survives a round trip,
// and hostile input is refused with an error, never a panic or a large
// allocation.

// encodeFrame returns f exactly as WriteFrame puts it on the wire.
func encodeFrame(t testing.TB, f *Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := newFrameConn(nil, bw).WriteFrame(f); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readFrame decodes the first frame of b as ReadFrame does off a socket.
func readFrame(b []byte) (Frame, error) {
	var f Frame
	err := newFrameConn(bufio.NewReader(bytes.NewReader(b)), nil).ReadFrame(&f)
	return f, err
}

// fullFrame sets every exported field of Frame and of each payload it
// carries to a non-zero value.
func fullFrame() *Frame {
	up := UpgradeToWire(&pkgmgr.Upgrade{ID: "up-1", Replaces: "0.9", Urgent: true,
		Pkg: &pkgmgr.Package{Name: "mysql", Version: "1.0"}})
	return &Frame{
		ID: -42, Op: OpTest, Err: "boom",
		Register:    &RegisterReq{Machine: "m1", Peer: "127.0.0.1:9"},
		Identify:    &IdentifyReq{App: "mysql", Workloads: [][]string{{"a", "b"}, {"c"}}},
		Record:      &RecordReq{App: "mysql", Inputs: []string{"select 1"}},
		Fingerprint: []byte(`{"app":"mysql"}`),
		Test:        &UpgradeReq{Upgrade: &up, Manifest: []byte(`{"sig":7}`), ManifestSig: 7},
		Integrate:   &UpgradeReq{Upgrade: &up, Manifest: []byte(`{"sig":8}`), ManifestSig: 1 << 63},
		PeerFetch:   &PeerFetchReq{Addrs: []uint64{1, 1<<64 - 1}, Peers: []string{"p1", "p2"}},
		Delta: &ProfileDeltaReq{Machine: "m1", App: "mysql", AppSet: "set", Sig: 99,
			Added:   []WireItem{{Key: "k1", Hash: 5, Kind: 1}},
			Removed: []WireItem{{Key: "k2", Hash: 6, Kind: -3}}, Full: true},
		ChunkMeta: []distrib.ChunkRef{{Hash: 11, Size: 4096}, {Hash: 12, Size: 1}},
		Resources: []string{"/etc/my.cnf", ""},
		Diff:      []WireItem{{Key: "d", Hash: 1 << 40, Kind: 2}},
		AppSet:    "appset",
		Report: &report.Report{ID: 3, UpgradeID: "up-1", Machine: "m1", Cluster: "c1", Success: true,
			FailedApps: []string{"php"}, Reasons: []string{"exit 1"}, Seq: 17,
			Image: &report.Image{MachineName: "m1", Env: map[string]string{"A": "1"},
				Files:    []report.FileState{{Path: "/x", Type: 1, Version: "1", Data: []byte{0, 1}}},
				Packages: []report.PackageState{{Name: "mysql", Version: "1.0", Files: []string{"/x"}}}}},
		NeedChunks:   []uint64{3, 4},
		NeedManifest: true,
		Peer: &PeerResult{Chunks: 2, Bytes: 8192, Served: map[string]int64{"p1": 4096, "p2": 4096},
			Failed: []string{"p3"}},
		OK:     true,
		Status: "resync",
	}
}

// jsonCarried are the payload types the codec sends as JSON of their own
// type: JSON carries their fields, so the completeness check stops there.
var jsonCarried = map[reflect.Type]bool{
	reflect.TypeOf(report.Image{}): true,
	reflect.TypeOf(WireUpgrade{}):  true,
}

// requireSet fails t for every exported field reachable from v (through
// pointers, structs, slices and maps) that holds its zero value: a field
// added to Frame or a payload without a fixture value — and so without
// proof the codec carries it — fails the round-trip test.
func requireSet(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	if v.IsZero() {
		t.Errorf("%s is zero in the fixture: set it, and make sure the codec carries it", path)
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		requireSet(t, path, v.Elem())
	case reflect.Struct:
		if jsonCarried[v.Type()] {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				requireSet(t, path+"."+f.Name, v.Field(i))
			}
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return
		}
		for i := 0; i < v.Len(); i++ {
			if e := v.Index(i); e.Kind() != reflect.String {
				requireSet(t, path+"[]", e)
			}
		}
	}
}

func TestCodecRoundTripEveryField(t *testing.T) {
	want := fullFrame()
	requireSet(t, "Frame", reflect.ValueOf(want))
	got, err := readFrame(encodeFrame(t, want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("round trip changed the frame:\n got %+v\nwant %+v", got, *want)
	}
}

// TestCodecDecodedFrameOwnsItsBytes reads two frames through one
// connection: the second read reuses the body buffer, so any field of the
// first frame still aliasing it would change.
func TestCodecDecodedFrameOwnsItsBytes(t *testing.T) {
	first := fullFrame()
	second := &Frame{ID: 2, Op: OpPing, Err: strings.Repeat("x", 2048),
		Fingerprint: bytes.Repeat([]byte{0xff}, 2048)}
	stream := append(encodeFrame(t, first), encodeFrame(t, second)...)
	fc := newFrameConn(bufio.NewReader(bytes.NewReader(stream)), nil)
	var a, b Frame
	if err := fc.ReadFrame(&a); err != nil {
		t.Fatal(err)
	}
	if err := fc.ReadFrame(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&a, first) {
		t.Fatal("first frame changed when the next frame was read")
	}
	if fc.wireLen != len(encodeFrame(t, second)) {
		t.Fatalf("wireLen = %d, want %d", fc.wireLen, len(encodeFrame(t, second)))
	}
}

// TestCodecDecodeAllocFree decodes a ping: the op name is interned, so
// the decode allocates nothing.
func TestCodecDecodeAllocFree(t *testing.T) {
	body, err := appendBody(nil, &Frame{ID: 9, Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if n := testing.AllocsPerRun(100, func() {
		if err := decodeBody(body, &f); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("decoding a ping allocates %v times", n)
	}
	if f.Op != OpPing || f.ID != 9 {
		t.Fatalf("decoded %+v", f)
	}
}

// frameBytes assembles a frame from a raw body.
func frameBytes(body ...byte) []byte {
	return append(binary.AppendUvarint([]byte{frameVersion}, uint64(len(body))), body...)
}

func TestCodecRejectsHostileInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		wire []byte
		want string
	}{
		{"wrong version", append([]byte{'{'}, frameBytes()[1:]...), "version"},
		{"body over the cap", binary.AppendUvarint([]byte{frameVersion}, maxWireChunk+1), "declares"},
		{"2^40-byte body", binary.AppendUvarint([]byte{frameVersion}, 1<<40), "declares"},
		{"length varint overflow", append([]byte{frameVersion}, bytes.Repeat([]byte{0xff}, 11)...), "length"},
		{"missing body", binary.AppendUvarint([]byte{frameVersion}, 5), "EOF"},
		{"count over remaining bytes", frameBytes(tagNeedChunks, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2, 3), "elements"},
		{"string over remaining bytes", frameBytes(tagErr, 10, 'a'), "truncated"},
		{"truncated hash", frameBytes(tagDelta, 0, 0, 0, 1, 2, 3), "truncated"},
		{"truncated payload", frameBytes(tagRegister, 1, 'm'), "truncated"},
		{"bad bool byte", frameBytes(tagDelta, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7), "bool"},
		{"bad JSON payload", frameBytes(tagReport, 0, 0, 0, 0, 1, 0, 0, 3, '{', '{', '{', 0), "JSON"},
		{"unknown tag", frameBytes(200), "unknown frame tag"},
		{"repeated tag", frameBytes(tagOK, tagOK), "after tag"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readFrame(tc.wire)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// TestCodecHugeLengthAllocatesNothing declares bodies that never arrive:
// one past any sane bound (refused before reading on) and one just under
// the cap (read until the stream ends). Neither may allocate the declared
// size.
func TestCodecHugeLengthAllocatesNothing(t *testing.T) {
	for _, n := range []uint64{1 << 40, maxWireChunk} {
		wire := append(binary.AppendUvarint([]byte{frameVersion}, n), "only a few bytes"...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readFrame(wire)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%d-byte declaration accepted", n)
		}
		if n == maxWireChunk && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d-byte declaration: err = %v, want unexpected EOF", n, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxWireChunk/4 {
			t.Fatalf("%d-byte declaration allocated %d bytes", n, grew)
		}
	}
}

// seedFrames is one valid frame per op, in the shapes the protocol sends.
func seedFrames() []*Frame {
	up := UpgradeToWire(&pkgmgr.Upgrade{ID: "u", Pkg: &pkgmgr.Package{Name: "p", Version: "2"}})
	return []*Frame{
		{Op: OpRegister, Register: &RegisterReq{Machine: "m1", Peer: "127.0.0.1:1"}},
		{ID: 1, Op: OpIdentify, Identify: &IdentifyReq{App: "mysql", Workloads: [][]string{{"q"}}}},
		{ID: 2, Op: OpRecord, Record: &RecordReq{App: "mysql", Inputs: []string{"i"}}},
		{ID: 3, Op: OpFingerprint, Fingerprint: []byte(`{"app":"mysql"}`)},
		{ID: 4, Op: OpTest, Test: &UpgradeReq{Manifest: []byte(`{"sig":5}`), ManifestSig: 5}},
		{ID: 5, Op: OpIntegrate, Integrate: &UpgradeReq{Upgrade: &up}},
		{ID: 6, Op: OpPing},
		{ID: 7, Op: OpFetchChunks, ChunkMeta: []distrib.ChunkRef{{Hash: 1, Size: 3}}},
		{ID: 8, Op: OpPeerFetch, PeerFetch: &PeerFetchReq{Addrs: []uint64{1}, Peers: []string{"p"}}},
		{ID: 1, Op: OpPeerGet, NeedChunks: []uint64{1, 2}},
		{ID: 1, Op: OpProfileDelta, Delta: &ProfileDeltaReq{Machine: "m", App: "a", Sig: 3,
			Added: []WireItem{{Key: "k", Hash: 1}}, Full: true}},
		{ID: 4, OK: true, Report: &report.Report{UpgradeID: "u", Machine: "m", Success: true}},
		{ID: 4, OK: true, NeedChunks: []uint64{9}},
		{ID: 8, OK: true, Peer: &PeerResult{Chunks: 1, Bytes: 3, Served: map[string]int64{"p": 3}}},
		{ID: 9, Err: "unknown op x"},
	}
}

// FuzzReadFrame feeds arbitrary bytes to ReadFrame. Decoding must never
// panic, and a frame that decodes must re-encode and decode to an equal
// frame.
func FuzzReadFrame(f *testing.F) {
	for _, fr := range append(seedFrames(), fullFrame()) {
		wire := encodeFrame(f, fr)
		for n := 0; n <= len(wire); n++ {
			f.Add(wire[:n])
		}
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		first, err := readFrame(wire)
		if err != nil {
			return
		}
		second, err := readFrame(encodeFrame(t, &first))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("re-encoding changed the frame:\n got %+v\nwant %+v", second, first)
		}
	})
}
