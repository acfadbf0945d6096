package pkgmgr

import (
	"testing"

	"repro/internal/machine"
)

func sealFixture() *Upgrade {
	return &Upgrade{
		ID: "app-2.0",
		Pkg: &Package{Name: "app", Version: "2.0",
			Files:        []*machine.File{{Path: "/bin/app", Type: machine.TypeExecutable, Version: "2.0", Data: []byte("v2 bytes")}},
			Dependencies: []Dependency{{Name: "libc", MinVersion: "2.4"}},
		},
		Replaces:   "1.0",
		Migrations: []FileEdit{{Path: "/etc/app.conf", SetData: []byte("new\n")}},
	}
}

// TestSealIsPrivateDeepCopy: the sealed copy shares no mutable state with
// the original, so changing the original afterwards cannot make the
// memoised signature stale.
func TestSealIsPrivateDeepCopy(t *testing.T) {
	up := sealFixture()
	want := up.Signature()
	sealed := up.Seal()
	if sealed == up || sealed.Pkg == up.Pkg || sealed.Pkg.Files[0] == up.Pkg.Files[0] {
		t.Fatal("Seal shares structure with the original")
	}
	if got := sealed.Signature(); got != want {
		t.Fatalf("sealed signature %x, want %x", got, want)
	}
	up.Pkg.Files[0].Data[0] = 'X'
	up.Pkg.Dependencies[0].MinVersion = "9"
	up.Migrations[0].SetData[0] = 'X'
	if up.Signature() == want {
		t.Fatal("mutated original still has the old signature")
	}
	if sealed.Signature() != want || sealed.digest() != want {
		t.Fatal("mutating the original reached the sealed copy")
	}
	if string(sealed.Pkg.Files[0].Data) != "v2 bytes" || string(sealed.Migrations[0].SetData) != "new\n" {
		t.Fatal("sealed bytes changed with the original")
	}
}

// TestSignatureRecomputesOnStructCopy: a struct copy of a sealed upgrade
// carries the memo pointer but not the address it was computed for, so a
// copy with a swapped package is digested afresh.
func TestSignatureRecomputesOnStructCopy(t *testing.T) {
	sealed := sealFixture().Seal()
	cp := *sealed
	cp.Pkg = &Package{Name: "app", Version: "2.0",
		Files: []*machine.File{{Path: "/bin/app", Type: machine.TypeExecutable, Version: "2.0", Data: []byte("other bytes")}}}
	if cp.Signature() == sealed.Signature() {
		t.Fatal("struct copy with a swapped package reused the sealed memo")
	}
	if cp.Signature() != cp.digest() {
		t.Fatal("struct copy signature is not its own digest")
	}
	// Re-sealing a sealed upgrade digests afresh too.
	if again := sealed.Seal(); again.Signature() != sealed.Signature() {
		t.Fatal("re-sealing changed the signature of identical content")
	}
}

func TestSealKeepsNilMigrationFields(t *testing.T) {
	up := &Upgrade{ID: "x", Pkg: &Package{Name: "x"},
		Migrations: []FileEdit{{Path: "/a", Append: []byte{}}, {Path: "/b", Remove: true}}}
	sealed := up.Seal()
	if sealed.Migrations[0].SetData != nil || sealed.Migrations[0].Append == nil {
		t.Fatal("Seal changed which migration field applies")
	}
	if !sealed.Migrations[1].Remove || sealed.Migrations[1].SetData != nil || sealed.Migrations[1].Append != nil {
		t.Fatal("Seal changed a Remove migration")
	}
}
