package distrib

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/pkgmgr"
)

// payload returns deterministic pseudo-random data that chunks into many
// content-defined pieces.
func payload(seed byte, n int) []byte {
	data := make([]byte, n)
	x := uint32(seed) + 1
	for i := range data {
		x = x*1664525 + 1013904223
		data[i] = byte(x >> 16)
	}
	return data
}

func upgrade(id string, files ...*machine.File) *pkgmgr.Upgrade {
	return &pkgmgr.Upgrade{
		ID: id,
		Pkg: &pkgmgr.Package{
			Name: "app", Version: "2.0", Files: files,
			Dependencies: []pkgmgr.Dependency{{Name: "libc", MinVersion: "2.4"}},
		},
		Replaces:   "1.0",
		Migrations: []pkgmgr.FileEdit{{Path: "/etc/app.conf", Append: []byte("migrated\n")}},
	}
}

func TestStoreRoundTrip(t *testing.T) {
	store := NewStore()
	up := upgrade("app-2.0",
		&machine.File{Path: "/bin/app", Type: machine.TypeExecutable, Version: "2.0", Data: payload(1, 100_000)},
		&machine.File{Path: "/lib/libapp.so", Type: machine.TypeSharedLib, Version: "2", Data: payload(2, 30_000)},
		&machine.File{Path: "/etc/empty", Type: machine.TypeConfig, Data: nil},
	)
	man := store.Manifest(up)
	if man.ID != up.ID || man.Name != "app" || man.Replaces != "1.0" {
		t.Fatalf("manifest metadata = %+v", man)
	}
	if got := man.PayloadBytes(); got != 130_000 {
		t.Fatalf("payload bytes = %d, want 130000", got)
	}
	if store.Manifest(up) != man {
		t.Fatal("manifest not cached per upgrade ID")
	}

	cache := NewCache()
	missing := cache.Missing(man)
	if len(missing) == 0 {
		t.Fatal("cold cache missing nothing")
	}
	chunks, err := store.Chunks(missing)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range chunks {
		if err := cache.Add(ch.Hash, ch.Data); err != nil {
			t.Fatal(err)
		}
	}
	if rest := cache.Missing(man); len(rest) != 0 {
		t.Fatalf("still missing %d chunks after full fetch", len(rest))
	}
	back, err := cache.Assemble(man)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != up.ID || back.Pkg.Version != "2.0" || back.Replaces != "1.0" {
		t.Fatalf("assembled = %+v", back)
	}
	if len(back.Pkg.Dependencies) != 1 || len(back.Migrations) != 1 {
		t.Fatal("deps/migrations lost in manifest round-trip")
	}
	if len(back.Pkg.Files) != 3 {
		t.Fatalf("files = %d", len(back.Pkg.Files))
	}
	for i, f := range back.Pkg.Files {
		orig := up.Pkg.Files[i]
		if f.Path != orig.Path || f.Type != orig.Type || f.Version != orig.Version || !bytes.Equal(f.Data, orig.Data) {
			t.Fatalf("file %s did not survive the round-trip", orig.Path)
		}
	}
}

// TestManifestNotStaleUnderReusedID: manifests are cached by content
// signature, so an upgrade whose bytes changed under the same ID (a
// careless Fixer) re-chunks instead of distributing the old content.
func TestManifestNotStaleUnderReusedID(t *testing.T) {
	store := NewStore()
	mk := func(data []byte) *pkgmgr.Upgrade {
		return upgrade("app-2.0",
			&machine.File{Path: "/bin/app", Type: machine.TypeExecutable, Version: "2.0", Data: data})
	}
	first := store.Manifest(mk(payload(8, 50_000)))
	v2 := payload(9, 50_000)
	second := store.Manifest(mk(v2))
	if second == first {
		t.Fatal("changed content under a reused ID served the stale manifest")
	}
	cache := NewCache()
	chunks, err := store.Chunks(cache.Missing(second))
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range chunks {
		if err := cache.Add(ch.Hash, ch.Data); err != nil {
			t.Fatal(err)
		}
	}
	back, err := cache.Assemble(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Pkg.Files[0].Data, v2) {
		t.Fatal("assembled content is not the new version")
	}
	// Identical content still shares the cached manifest.
	if store.Manifest(mk(v2)) != second {
		t.Fatal("identical content re-chunked")
	}
}

func TestCacheRejectsCorruptChunk(t *testing.T) {
	cache := NewCache()
	data := payload(3, 1000)
	addr := fingerprint.HashBytes(data)
	if err := cache.Add(addr, append([]byte("x"), data...)); err == nil {
		t.Fatal("corrupt chunk accepted")
	}
	if err := cache.Add(addr, data); err != nil {
		t.Fatal(err)
	}
}

func TestAssembleNamesMissingChunk(t *testing.T) {
	store := NewStore()
	man := store.Manifest(upgrade("app-2.0",
		&machine.File{Path: "/bin/app", Type: machine.TypeExecutable, Data: payload(4, 50_000)}))
	if _, err := NewCache().Assemble(man); err == nil {
		t.Fatal("assembled from empty cache")
	}
}

func TestStoreRejectsUnknownAddress(t *testing.T) {
	if _, err := NewStore().Chunks([]uint64{42}); err == nil {
		t.Fatal("store handed out a chunk it never made")
	}
}

// TestSeededCacheMakesVersionDelta is the CDC property the distribution
// layer exists for: seed the cache with version N, and a manifest for
// version N+1 (a small edit of N) misses only the chunks the edit touched.
func TestSeededCacheMakesVersionDelta(t *testing.T) {
	v1 := payload(5, 256*1024)
	v2 := append([]byte(nil), v1...)
	copy(v2[128*1024:], []byte("this small edit replaces a few bytes in the middle"))

	store := NewStore()
	man := store.Manifest(upgrade("app-2.0",
		&machine.File{Path: "/bin/app", Type: machine.TypeExecutable, Version: "2.0", Data: v2}))

	cache := NewCache()
	m := machine.New("seeded")
	m.WriteFile(&machine.File{Path: "/bin/app", Type: machine.TypeExecutable, Version: "1.0", Data: v1})
	cache.SeedMachine(m)

	missing := cache.Missing(man)
	var missBytes int
	for _, f := range man.Files {
		for _, ref := range f.Chunks {
			for _, a := range missing {
				if ref.Hash == a {
					missBytes += ref.Size
				}
			}
		}
	}
	if missBytes == 0 {
		t.Fatal("edit transferred nothing — delta test is vacuous")
	}
	// The edit touches a handful of chunks; the bulk of the 256 KiB file
	// must already be seeded. Allow a generous factor for boundary drift.
	if missBytes > len(v2)/4 {
		t.Fatalf("delta = %d bytes of %d — CDC dedup not working", missBytes, len(v2))
	}

	chunks, err := store.Chunks(missing)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range chunks {
		if err := cache.Add(ch.Hash, ch.Data); err != nil {
			t.Fatal(err)
		}
	}
	back, err := cache.Assemble(man)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Pkg.Files[0].Data, v2) {
		t.Fatal("assembled v2 differs from original")
	}
}

func TestConcurrentStoreAndCache(t *testing.T) {
	store := NewStore()
	cache := NewCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			up := upgrade(fmt.Sprintf("app-%d", g),
				&machine.File{Path: fmt.Sprintf("/bin/app%d", g), Type: machine.TypeExecutable, Data: payload(byte(g), 64*1024)})
			man := store.Manifest(up)
			chunks, err := store.Chunks(cache.Missing(man))
			if err != nil {
				t.Error(err)
				return
			}
			for _, ch := range chunks {
				if err := cache.Add(ch.Hash, ch.Data); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := cache.Assemble(man); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
}

// TestCacheChunksServesWhatItHolds pins the peer-serving primitive: only
// held addresses come back, in request order, and the miss is silent —
// "what I have" is the peer protocol, the requester's fallback handles
// the rest.
func TestCacheChunksServesWhatItHolds(t *testing.T) {
	cache := NewCache()
	a := payload(1, 2000)
	b := payload(2, 2000)
	addrA, addrB := fingerprint.HashBytes(a), fingerprint.HashBytes(b)
	if err := cache.Add(addrA, a); err != nil {
		t.Fatal(err)
	}
	if err := cache.Add(addrB, b); err != nil {
		t.Fatal(err)
	}
	got := cache.Chunks([]uint64{addrB, 999, addrA})
	if len(got) != 2 || got[0].Hash != addrB || got[1].Hash != addrA {
		t.Fatalf("Chunks = %+v, want [B, A] with the unknown address skipped", got)
	}
	if !bytes.Equal(got[0].Data, b) || !bytes.Equal(got[1].Data, a) {
		t.Fatal("served chunk bytes differ from what was added")
	}
	if out := cache.Chunks(nil); len(out) != 0 {
		t.Fatalf("empty request served %d chunks", len(out))
	}
}

// TestManifestAddrsComputedOnce: a store-built manifest lists each
// distinct chunk address once, in first-seen order, and hands out the
// same slice on every call; a hand-built manifest computes the same list.
func TestManifestAddrsComputedOnce(t *testing.T) {
	data := payload(3, 40_000)
	man := NewStore().Manifest(upgrade("dup-1.0",
		&machine.File{Path: "/bin/a", Type: machine.TypeExecutable, Data: data},
		&machine.File{Path: "/bin/b", Type: machine.TypeExecutable, Data: data},
	))
	var want []uint64
	seen := map[uint64]bool{}
	for _, f := range man.Files {
		for _, ref := range f.Chunks {
			if !seen[ref.Hash] {
				seen[ref.Hash] = true
				want = append(want, ref.Hash)
			}
		}
	}
	got := man.Addrs()
	if fmt.Sprint(got) != fmt.Sprint(want) || len(got) >= man.ChunkCount() {
		t.Fatalf("Addrs = %v, want the %d distinct of %d refs %v", got, len(want), man.ChunkCount(), want)
	}
	if again := man.Addrs(); &again[0] != &got[0] {
		t.Fatal("store-built manifest recomputed its addresses")
	}
	bare := &Manifest{Files: man.Files}
	if fmt.Sprint(bare.Addrs()) != fmt.Sprint(want) {
		t.Fatalf("hand-built manifest Addrs = %v, want %v", bare.Addrs(), want)
	}
}
