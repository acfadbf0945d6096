package transport

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/distrib"
	"repro/internal/report"
)

// The frame codec. A frame is
//
//	[version byte][uvarint body length][body]
//
// and the body is a run of (tag byte, value) pairs, one per Frame field
// that is set, in ascending tag order. An unset field (zero scalar, nil
// slice or pointer) is simply absent, as omitempty was under JSON. Values:
//
//   - strings and byte fields: uvarint length, then the bytes;
//   - hashes and signatures: 8 bytes little-endian;
//   - sizes and counts: uvarints;
//   - signed ints: zig-zag varints;
//   - a Frame-level bool: the bare tag.
//
// A payload struct (RegisterReq, UpgradeReq, report.Report, …) follows
// its tag as a fixed tuple of its fields in declaration order, every field
// written even when zero (a bool is one 0/1 byte); a slice is a uvarint
// element count followed by the elements. Manifest and Fingerprint are
// opaque bytes the vendor encoded once. Only the two cold nested payloads
// — Report.Image, attached on failure, and UpgradeReq.Upgrade, sent by the
// -inline mode — travel as length-prefixed JSON of their own types.
//
// The decoder faces untrusted input: every length and element count is
// checked against the bytes that remain before anything is allocated,
// and any malformed body is an error, never a panic. Decoded frames copy
// every byte and string out of the input buffer.

// frameVersion is the first byte of every frame. It is not '{', so a peer
// still speaking newline-delimited JSON is refused on its first byte.
const frameVersion = 1

// Frame field tags, in encoding order.
const (
	tagID = iota + 1
	tagOp
	tagErr
	tagRegister
	tagIdentify
	tagRecord
	tagFingerprint
	tagTest
	tagIntegrate
	tagPeerFetch
	tagDelta
	tagChunkMeta
	tagResources
	tagDiff
	tagAppSet
	tagReport
	tagNeedChunks
	tagNeedManifest
	tagPeer
	tagOK
	tagStatus
)

// Minimum encoded sizes of slice elements, for bounding element counts
// by the bytes that remain.
const (
	minString   = 1     // empty string: a zero length
	minChunkRef = 8 + 1 // hash + size
	minWireItem = 1 + 8 + 1
	minHash     = 8
)

var (
	errTruncated = errors.New("transport: frame truncated")
	errVarint    = errors.New("transport: frame varint overflows 64 bits")
)

// encoder appends a frame body to b.
type encoder struct{ b []byte }

func (e *encoder) tag(t byte)       { e.b = append(e.b, t) }
func (e *encoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *encoder) fixed64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encoder) str(s string)     { e.uvarint(uint64(len(s))); e.b = append(e.b, s...) }
func (e *encoder) bytes(p []byte)   { e.uvarint(uint64(len(p))); e.b = append(e.b, p...) }
func (e *encoder) count(n int)      { e.uvarint(uint64(n)) }
func (e *encoder) tagStr(t byte, s string) {
	if s != "" {
		e.tag(t)
		e.str(s)
	}
}

func (e *encoder) boolean(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.b = append(e.b, b)
}

func (e *encoder) strs(ss []string) {
	e.count(len(ss))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *encoder) hashes(hs []uint64) {
	e.count(len(hs))
	for _, h := range hs {
		e.fixed64(h)
	}
}

func (e *encoder) items(items []WireItem) {
	e.count(len(items))
	for _, it := range items {
		e.str(it.Key)
		e.fixed64(it.Hash)
		e.varint(int64(it.Kind))
	}
}

// appendJSON appends v's JSON encoding as a byte field, or an empty one
// for a nil v.
func appendJSON[T any](e *encoder, v *T) error {
	if v == nil {
		e.bytes(nil)
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	e.bytes(b)
	return nil
}

func (e *encoder) upgradeReq(r *UpgradeReq) error {
	if err := appendJSON(e, r.Upgrade); err != nil {
		return err
	}
	e.bytes(r.Manifest)
	e.fixed64(r.ManifestSig)
	return nil
}

// appendBody appends the encoded body of f to dst. On error it returns
// the partly encoded buffer, so the caller can still recycle it.
func appendBody(dst []byte, f *Frame) ([]byte, error) {
	e := encoder{dst}
	if f.ID != 0 {
		e.tag(tagID)
		e.varint(int64(f.ID))
	}
	e.tagStr(tagOp, f.Op)
	e.tagStr(tagErr, f.Err)
	if r := f.Register; r != nil {
		e.tag(tagRegister)
		e.str(r.Machine)
		e.str(r.Peer)
	}
	if r := f.Identify; r != nil {
		e.tag(tagIdentify)
		e.str(r.App)
		e.count(len(r.Workloads))
		for _, w := range r.Workloads {
			e.strs(w)
		}
	}
	if r := f.Record; r != nil {
		e.tag(tagRecord)
		e.str(r.App)
		e.strs(r.Inputs)
	}
	if len(f.Fingerprint) > 0 {
		e.tag(tagFingerprint)
		e.bytes(f.Fingerprint)
	}
	if r := f.Test; r != nil {
		e.tag(tagTest)
		if err := e.upgradeReq(r); err != nil {
			return e.b, err
		}
	}
	if r := f.Integrate; r != nil {
		e.tag(tagIntegrate)
		if err := e.upgradeReq(r); err != nil {
			return e.b, err
		}
	}
	if r := f.PeerFetch; r != nil {
		e.tag(tagPeerFetch)
		e.hashes(r.Addrs)
		e.strs(r.Peers)
	}
	if r := f.Delta; r != nil {
		e.tag(tagDelta)
		e.str(r.Machine)
		e.str(r.App)
		e.str(r.AppSet)
		e.fixed64(r.Sig)
		e.items(r.Added)
		e.items(r.Removed)
		e.boolean(r.Full)
	}
	if len(f.ChunkMeta) > 0 {
		e.tag(tagChunkMeta)
		e.count(len(f.ChunkMeta))
		for _, ref := range f.ChunkMeta {
			e.fixed64(ref.Hash)
			e.uvarint(uint64(ref.Size))
		}
	}
	if len(f.Resources) > 0 {
		e.tag(tagResources)
		e.strs(f.Resources)
	}
	if len(f.Diff) > 0 {
		e.tag(tagDiff)
		e.items(f.Diff)
	}
	e.tagStr(tagAppSet, f.AppSet)
	if r := f.Report; r != nil {
		e.tag(tagReport)
		e.varint(int64(r.ID))
		e.str(r.UpgradeID)
		e.str(r.Machine)
		e.str(r.Cluster)
		e.boolean(r.Success)
		e.strs(r.FailedApps)
		e.strs(r.Reasons)
		if err := appendJSON(&e, r.Image); err != nil {
			return e.b, err
		}
		e.varint(int64(r.Seq))
	}
	if len(f.NeedChunks) > 0 {
		e.tag(tagNeedChunks)
		e.hashes(f.NeedChunks)
	}
	if f.NeedManifest {
		e.tag(tagNeedManifest)
	}
	if r := f.Peer; r != nil {
		e.tag(tagPeer)
		e.uvarint(uint64(r.Chunks))
		e.uvarint(uint64(r.Bytes))
		e.count(len(r.Served))
		for addr, n := range r.Served {
			e.str(addr)
			e.uvarint(uint64(n))
		}
		e.strs(r.Failed)
	}
	if f.OK {
		e.tag(tagOK)
	}
	e.tagStr(tagStatus, f.Status)
	return e.b, nil
}

// decoder reads a frame body. The first error sticks: every later read
// returns a zero value, so decodeBody checks once per field.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// advance consumes the n bytes a varint read reported, or fails on the
// truncated (n == 0) or overflowing (n < 0) varint it reported instead.
func (d *decoder) advance(n int) bool {
	switch {
	case n == 0:
		d.fail(errTruncated)
	case n < 0:
		d.fail(errVarint)
	default:
		d.b = d.b[n:]
		return true
	}
	return false
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if !d.advance(n) {
		return 0
	}
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if !d.advance(n) {
		return 0
	}
	return v
}

func (d *decoder) fixed64() uint64 {
	if len(d.b) < 8 {
		d.fail(errTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) boolean() bool {
	if len(d.b) == 0 {
		d.fail(errTruncated)
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	if v > 1 {
		d.fail(fmt.Errorf("transport: frame bool byte %d", v))
	}
	return v == 1
}

// view returns the next length-prefixed field, still aliasing the input.
func (d *decoder) view() []byte {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail(errTruncated)
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) str() string { return string(d.view()) }

// bytes returns a copy of the next byte field; empty is nil.
func (d *decoder) bytes() []byte {
	p := d.view()
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

// count reads an element count and checks that the remaining bytes could
// hold that many elements of at least min bytes each.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/min) {
		d.fail(fmt.Errorf("transport: frame declares %d elements in %d bytes", n, len(d.b)))
		return 0
	}
	return int(n)
}

// knownOps interns the operation names: decoding a known op returns the
// constant, so the common case allocates nothing.
var knownOps = func() map[string]string {
	m := make(map[string]string)
	for _, op := range []string{OpRegister, OpIdentify, OpRecord, OpFingerprint, OpTest,
		OpIntegrate, OpPing, OpFetchChunks, OpPeerFetch, OpPeerGet, OpProfileDelta} {
		m[op] = op
	}
	return m
}()

// op reads the operation name.
func (d *decoder) op() string {
	p := d.view()
	if op, ok := knownOps[string(p)]; ok {
		return op
	}
	return string(p)
}

func (d *decoder) strs() []string {
	n := d.count(minString)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

func (d *decoder) hashes() []uint64 {
	n := d.count(minHash)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.fixed64()
	}
	return out
}

func (d *decoder) items() []WireItem {
	n := d.count(minWireItem)
	if n == 0 {
		return nil
	}
	out := make([]WireItem, n)
	for i := range out {
		out[i] = WireItem{Key: d.str(), Hash: d.fixed64(), Kind: int(d.varint())}
	}
	return out
}

// readJSON decodes the next byte field as the JSON of a T; an empty field
// is nil.
func readJSON[T any](d *decoder) *T {
	p := d.view()
	if len(p) == 0 {
		return nil
	}
	v := new(T)
	if err := json.Unmarshal(p, v); err != nil {
		d.fail(fmt.Errorf("transport: frame JSON field: %w", err))
		return nil
	}
	return v
}

func (d *decoder) upgradeReq() *UpgradeReq {
	return &UpgradeReq{Upgrade: readJSON[WireUpgrade](d), Manifest: d.bytes(), ManifestSig: d.fixed64()}
}

// decodeBody decodes one frame body into f, replacing its contents.
func decodeBody(body []byte, f *Frame) error {
	*f = Frame{}
	d := decoder{b: body}
	last := byte(0)
	for len(d.b) > 0 {
		t := d.b[0]
		d.b = d.b[1:]
		if t <= last {
			return fmt.Errorf("transport: frame tag %d after tag %d", t, last)
		}
		last = t
		switch t {
		case tagID:
			f.ID = int(d.varint())
		case tagOp:
			f.Op = d.op()
		case tagErr:
			f.Err = d.str()
		case tagRegister:
			f.Register = &RegisterReq{Machine: d.str(), Peer: d.str()}
		case tagIdentify:
			r := &IdentifyReq{App: d.str()}
			if n := d.count(minString); n > 0 {
				r.Workloads = make([][]string, n)
				for i := range r.Workloads {
					r.Workloads[i] = d.strs()
				}
			}
			f.Identify = r
		case tagRecord:
			f.Record = &RecordReq{App: d.str(), Inputs: d.strs()}
		case tagFingerprint:
			f.Fingerprint = d.bytes()
		case tagTest:
			f.Test = d.upgradeReq()
		case tagIntegrate:
			f.Integrate = d.upgradeReq()
		case tagPeerFetch:
			f.PeerFetch = &PeerFetchReq{Addrs: d.hashes(), Peers: d.strs()}
		case tagDelta:
			f.Delta = &ProfileDeltaReq{Machine: d.str(), App: d.str(), AppSet: d.str(),
				Sig: d.fixed64(), Added: d.items(), Removed: d.items(), Full: d.boolean()}
		case tagChunkMeta:
			if n := d.count(minChunkRef); n > 0 {
				f.ChunkMeta = make([]distrib.ChunkRef, n)
				for i := range f.ChunkMeta {
					f.ChunkMeta[i] = distrib.ChunkRef{Hash: d.fixed64(), Size: int(d.uvarint())}
				}
			}
		case tagResources:
			f.Resources = d.strs()
		case tagDiff:
			f.Diff = d.items()
		case tagAppSet:
			f.AppSet = d.str()
		case tagReport:
			f.Report = &report.Report{ID: int(d.varint()), UpgradeID: d.str(), Machine: d.str(),
				Cluster: d.str(), Success: d.boolean(), FailedApps: d.strs(), Reasons: d.strs(),
				Image: readJSON[report.Image](&d), Seq: int(d.varint())}
		case tagNeedChunks:
			f.NeedChunks = d.hashes()
		case tagNeedManifest:
			f.NeedManifest = true
		case tagPeer:
			r := &PeerResult{Chunks: int(d.uvarint()), Bytes: int64(d.uvarint())}
			if n := d.count(minString + 1); n > 0 {
				r.Served = make(map[string]int64, n)
				for i := 0; i < n; i++ {
					addr := d.str()
					r.Served[addr] = int64(d.uvarint())
				}
			}
			r.Failed = d.strs()
			f.Peer = r
		case tagOK:
			f.OK = true
		case tagStatus:
			f.Status = d.str()
		default:
			return fmt.Errorf("transport: unknown frame tag %d", t)
		}
		if d.err != nil {
			return d.err
		}
	}
	return nil
}
