// Package distrib is Mirage's content-addressed distribution layer: the
// machinery that moves upgrade bytes to a fleet without ever shipping the
// same content twice.
//
// The vendor side is a Store. It cuts each upgrade file into
// content-defined chunks (the same LBFS-style chunker the fingerprinting
// subsystem uses) and keeps them under their content address — the strong
// HashBytes digest of the chunk contents. What travels in an upgrade push
// is then only a Manifest: the upgrade metadata plus, per file, the
// ordered chunk address list. Manifests are a few hundred bytes where the
// inline payload was the whole package.
//
// The agent side is a Cache, keyed by the same addresses. Before
// resolving a manifest the agent seeds the cache by chunking its
// currently installed files, so the chunks an upgrade shares with the
// previous version — usually almost all of them — are already present
// and a version N→N+1 push degenerates to a true CDC delta. Only the
// addresses the cache misses are fetched, as raw chunk bytes, and the
// original files are reassembled locally before being handed to the
// ordinary package-manager path.
//
// Both ends are safe for concurrent use: one store serves every agent
// connection of a vendor, and one cache may be shared by several agents
// (machines on one LAN segment, in the paper's deployment picture).
package distrib

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/pkgmgr"
)

// ChunkRef names one chunk of a file: its content address and size.
type ChunkRef struct {
	Hash uint64 `json:"h"`
	Size int    `json:"n"`
}

// FileManifest describes one upgrade file as an ordered chunk list in
// place of inline data.
type FileManifest struct {
	Path    string     `json:"path"`
	Type    int        `json:"type"`
	Version string     `json:"version,omitempty"`
	Chunks  []ChunkRef `json:"chunks,omitempty"`
}

// Manifest is the content-addressed form of a pkgmgr.Upgrade: all the
// metadata, none of the bytes. Sig is the upgrade's content signature
// (pkgmgr.Upgrade.Signature), which names the manifest on the wire once
// an agent holds it.
type Manifest struct {
	Sig        uint64              `json:"sig"`
	ID         string              `json:"id"`
	Name       string              `json:"name"`
	Version    string              `json:"version"`
	Replaces   string              `json:"replaces,omitempty"`
	Urgent     bool                `json:"urgent,omitempty"`
	Files      []FileManifest      `json:"files"`
	Deps       []pkgmgr.Dependency `json:"deps,omitempty"`
	Migrations []pkgmgr.FileEdit   `json:"migrations,omitempty"`

	// raw is the JSON encoding and addrs the distinct chunk addresses,
	// both made once by the Store that built the manifest: a published
	// manifest is never modified.
	raw   json.RawMessage
	addrs []uint64
}

// JSON returns the manifest's JSON encoding. A manifest built by a Store
// was encoded once, when it was built, and every call returns those bytes;
// any other manifest is encoded on each call.
func (m *Manifest) JSON() (json.RawMessage, error) {
	if m.raw != nil {
		return m.raw, nil
	}
	return json.Marshal(m)
}

// Addrs returns the manifest's distinct chunk addresses in first-seen
// order. A manifest built by a Store computed them once, when it was
// built, and every call returns that slice, which callers must not
// modify; any other manifest computes them on each call.
func (m *Manifest) Addrs() []uint64 {
	if m.addrs != nil {
		return m.addrs
	}
	return m.distinctAddrs()
}

func (m *Manifest) distinctAddrs() []uint64 {
	seen := make(map[uint64]bool)
	out := make([]uint64, 0, len(m.Files))
	for _, f := range m.Files {
		for _, ref := range f.Chunks {
			if !seen[ref.Hash] {
				seen[ref.Hash] = true
				out = append(out, ref.Hash)
			}
		}
	}
	return out
}

// ChunkCount returns the number of chunk references across all files
// (duplicates counted once each time they appear).
func (m *Manifest) ChunkCount() int {
	n := 0
	for _, f := range m.Files {
		n += len(f.Chunks)
	}
	return n
}

// PayloadBytes returns the total file bytes the manifest describes — what
// an inline push would have to carry.
func (m *Manifest) PayloadBytes() int64 {
	var n int64
	for _, f := range m.Files {
		for _, c := range f.Chunks {
			n += int64(c.Size)
		}
	}
	return n
}

// Chunk is one addressed chunk with its bytes — the unit a fetch moves.
type Chunk struct {
	Hash uint64 `json:"h"`
	Data []byte `json:"data"`
}

// Store is the vendor-side chunk store: upgrades go in, manifests and
// chunks come out.
type Store struct {
	mu        sync.Mutex
	chunker   *fingerprint.Chunker
	chunks    map[uint64][]byte
	bytes     int64
	manifests map[uint64]*Manifest // by pkgmgr.Upgrade.Signature
}

// NewStore returns an empty store using the default LBFS chunking
// parameters.
func NewStore() *Store {
	return &Store{
		chunker:   fingerprint.NewChunker(0, 0, 0),
		chunks:    make(map[uint64][]byte),
		manifests: make(map[uint64]*Manifest),
	}
}

// put records one chunk. Callers hold s.mu.
func (s *Store) put(addr uint64, data []byte) {
	if _, ok := s.chunks[addr]; ok {
		return
	}
	s.chunks[addr] = append([]byte(nil), data...)
	s.bytes += int64(len(data))
}

// Manifest cuts the upgrade's files into addressed chunks, stores every
// chunk, and returns the manifest, encoded once as JSON. Results are
// cached by content signature, so pushing one upgrade to a thousand
// machines chunks it once — and a changed upgrade is never served a stale
// manifest, even under a reused ID. On a sealed upgrade (pkgmgr.Upgrade.Seal)
// the signature is a memo, so a repeat lookup costs no hashing either; an
// unsealed upgrade is rehashed in full on every call.
func (s *Store) Manifest(up *pkgmgr.Upgrade) *Manifest {
	sig := up.Signature()
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.manifests[sig]; ok {
		return m
	}
	m := &Manifest{
		Sig: sig, ID: up.ID, Name: up.Pkg.Name, Version: up.Pkg.Version,
		Replaces: up.Replaces, Urgent: up.Urgent,
		Deps:       append([]pkgmgr.Dependency(nil), up.Pkg.Dependencies...),
		Migrations: append([]pkgmgr.FileEdit(nil), up.Migrations...),
	}
	for _, f := range up.Pkg.Files {
		fm := FileManifest{Path: f.Path, Type: int(f.Type), Version: f.Version}
		for _, ch := range s.chunker.SplitAddressed(f.Data) {
			s.put(ch.Address, f.Data[ch.Offset:ch.Offset+ch.Length])
			fm.Chunks = append(fm.Chunks, ChunkRef{Hash: ch.Address, Size: ch.Length})
		}
		m.Files = append(m.Files, fm)
	}
	if raw, err := json.Marshal(m); err == nil {
		m.raw = raw
	}
	m.addrs = m.distinctAddrs()
	s.manifests[sig] = m
	return m
}

// Chunks returns the stored chunks for the given addresses, in request
// order. An unknown address is an error: the store only hands out content
// it has chunked itself, so a miss means the requester holds a manifest
// this store never produced.
func (s *Store) Chunks(addrs []uint64) ([]Chunk, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Chunk, 0, len(addrs))
	for _, a := range addrs {
		data, ok := s.chunks[a]
		if !ok {
			return nil, fmt.Errorf("distrib: no chunk %s in store", fingerprint.FormatHash(a))
		}
		out = append(out, Chunk{Hash: a, Data: data})
	}
	return out, nil
}

// Len returns the number of distinct chunks stored.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.chunks)
}

// Bytes returns the total distinct chunk bytes stored.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// CacheStats summarises one cache's history.
type CacheStats struct {
	Chunks int   // distinct chunks held
	Bytes  int64 // distinct chunk bytes held
	Hits   int64 // manifest chunk lookups satisfied locally
	Misses int64 // manifest chunk lookups that had to be fetched
}

// Cache is the agent-side chunk cache. It persists across RPCs for the
// lifetime of the agent, which is exactly what makes integrate-after-test
// and staged-wave pushes free: the chunks fetched for the first operation
// satisfy every later one.
type Cache struct {
	mu      sync.Mutex
	chunker *fingerprint.Chunker
	chunks  map[uint64][]byte
	bytes   int64
	// seededFiles remembers whole-file digests already chunked into the
	// cache, so two machines sharing a cache seed identical files once.
	seededFiles map[uint64]bool
	// seededPaths remembers per-machine file identities already seeded,
	// so re-seeding before every RPC skips even the whole-file hash pass
	// for files that look unchanged.
	seededPaths map[seedKey]bool
	hits, miss  int64
}

// seedKey identifies a machine file cheaply — without reading its data.
// A mutation that preserves path, version and size slips past this memo,
// which only costs extra chunk fetches later (seeding is an optimization;
// assembly correctness never depends on it).
type seedKey struct {
	machine, path, version string
	size                   int
}

// NewCache returns an empty cache using the default chunking parameters
// (they must match the store's for seeded chunks to share addresses).
func NewCache() *Cache {
	return &Cache{
		chunker:     fingerprint.NewChunker(0, 0, 0),
		chunks:      make(map[uint64][]byte),
		seededFiles: make(map[uint64]bool),
		seededPaths: make(map[seedKey]bool),
	}
}

// SeedFile chunks one file's current contents into the cache. Seeding is
// what turns a version upgrade into a delta: every chunk the new version
// shares with the installed one is a hit before any byte moves.
func (c *Cache) SeedFile(data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := fingerprint.HashBytes(data)
	if c.seededFiles[key] {
		return
	}
	for _, ch := range c.chunker.SplitAddressed(data) {
		c.add(ch.Address, data[ch.Offset:ch.Offset+ch.Length])
	}
	c.seededFiles[key] = true
}

// SeedMachine seeds the cache from every file on the machine. It is
// called before each manifest resolution, so it memoizes aggressively:
// a file whose (path, version, size) was seeded before is skipped
// without touching its data, and a changed file whose whole-content
// digest is already known skips re-chunking.
func (c *Cache) SeedMachine(m *machine.Machine) {
	for _, f := range m.Files() {
		k := seedKey{machine: m.Name, path: f.Path, version: f.Version, size: len(f.Data)}
		c.mu.Lock()
		done := c.seededPaths[k]
		if !done {
			c.seededPaths[k] = true
		}
		c.mu.Unlock()
		if !done {
			c.SeedFile(f.Data)
		}
	}
}

// add records one chunk. Callers hold c.mu.
func (c *Cache) add(addr uint64, data []byte) {
	if _, ok := c.chunks[addr]; ok {
		return
	}
	c.chunks[addr] = append([]byte(nil), data...)
	c.bytes += int64(len(data))
}

// Add inserts a fetched chunk after verifying its content address; a
// mismatch means corruption (or a wrong chunk) and is rejected.
func (c *Cache) Add(addr uint64, data []byte) error {
	if got := fingerprint.HashBytes(data); got != addr {
		return fmt.Errorf("distrib: chunk %s content hashes to %s",
			fingerprint.FormatHash(addr), fingerprint.FormatHash(got))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(addr, data)
	return nil
}

// Missing returns the manifest's chunk addresses not present in the
// cache, deduplicated, in ascending order, and updates the hit/miss
// counters. An empty result means Assemble will succeed without a fetch.
func (c *Cache) Missing(m *Manifest) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	need := make(map[uint64]bool)
	for _, f := range m.Files {
		for _, ref := range f.Chunks {
			if _, ok := c.chunks[ref.Hash]; ok {
				c.hits++
			} else {
				c.miss++
				need[ref.Hash] = true
			}
		}
	}
	out := make([]uint64, 0, len(need))
	for a := range need {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Chunks returns the cached chunks among addrs, in request order,
// silently skipping addresses the cache does not hold — the serving
// primitive of the peer tier, where "give me what you have" is the
// protocol and the requester falls back to the vendor for the rest.
// The returned Data slices alias the cache's internal storage: stored
// chunks are immutable (add-only map, every insert copies), so they are
// safe to read concurrently but must never be modified.
func (c *Cache) Chunks(addrs []uint64) []Chunk {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Chunk, 0, len(addrs))
	for _, a := range addrs {
		if data, ok := c.chunks[a]; ok {
			out = append(out, Chunk{Hash: a, Data: data})
		}
	}
	return out
}

// Assemble reconstructs the full upgrade from cached chunks. Every chunk
// the manifest references must be present (fetch the Missing set first);
// an absent chunk is an error naming its address.
func (c *Cache) Assemble(m *Manifest) (*pkgmgr.Upgrade, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pkg := &pkgmgr.Package{
		Name: m.Name, Version: m.Version,
		Dependencies: append([]pkgmgr.Dependency(nil), m.Deps...),
	}
	for _, fm := range m.Files {
		size := 0
		for _, ref := range fm.Chunks {
			size += ref.Size
		}
		data := make([]byte, 0, size)
		for _, ref := range fm.Chunks {
			chunk, ok := c.chunks[ref.Hash]
			if !ok {
				return nil, fmt.Errorf("distrib: assembling %s: chunk %s not cached",
					fm.Path, fingerprint.FormatHash(ref.Hash))
			}
			data = append(data, chunk...)
		}
		pkg.Files = append(pkg.Files, &machine.File{
			Path: fm.Path, Type: machine.FileType(fm.Type), Version: fm.Version, Data: data,
		})
	}
	return &pkgmgr.Upgrade{
		ID: m.ID, Pkg: pkg, Replaces: m.Replaces, Urgent: m.Urgent,
		Migrations: append([]pkgmgr.FileEdit(nil), m.Migrations...),
	}, nil
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Chunks: len(c.chunks), Bytes: c.bytes, Hits: c.hits, Misses: c.miss}
}
