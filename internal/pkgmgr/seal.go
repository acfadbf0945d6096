package pkgmgr

import (
	"bytes"

	"repro/internal/fingerprint"
)

// sealMemo is the content signature of a sealed upgrade, tagged with the
// address of the copy it was computed for. A struct copy of a sealed
// upgrade carries the same memo pointer but lives at another address, so
// it never mistakes the memo for its own.
type sealMemo struct {
	self *Upgrade
	sig  uint64
}

// Seal returns a private deep copy of the upgrade — package files,
// dependencies and migrations all copied — whose content signature is
// computed once, here, and memoised. A rollout hands the sealed copy to
// every member, so the vendor digests the release once per rollout
// instead of once per member RPC. Nobody else holds the copy, so nobody
// can change its bytes under the memo unless handed it: deploy.Node
// implementations must not mutate it, and the controller reseals
// whatever a Fixer returns.
func (up *Upgrade) Seal() *Upgrade {
	cp := &Upgrade{ID: up.ID, Replaces: up.Replaces, Urgent: up.Urgent}
	if up.Pkg != nil {
		cp.Pkg = &Package{
			Name: up.Pkg.Name, Version: up.Pkg.Version,
			Dependencies: append([]Dependency(nil), up.Pkg.Dependencies...),
		}
		for _, f := range up.Pkg.Files {
			cp.Pkg.Files = append(cp.Pkg.Files, f.Clone())
		}
	}
	for _, e := range up.Migrations {
		cp.Migrations = append(cp.Migrations, FileEdit{
			Path: e.Path, Remove: e.Remove,
			SetData: bytes.Clone(e.SetData), Append: bytes.Clone(e.Append),
		})
	}
	cp.seal = &sealMemo{self: cp, sig: cp.digest()}
	return cp
}

// Signature digests everything a distribution manifest is derived from:
// metadata, dependencies, migrations and full file contents. On a sealed
// upgrade (see Seal) it returns the memo; on anything else — including a
// struct copy of a sealed upgrade — it rehashes every byte, so a changed
// upgrade under a reused ID never collides with the original.
func (up *Upgrade) Signature() uint64 {
	if up.seal != nil && up.seal.self == up {
		return up.seal.sig
	}
	return up.digest()
}

// digest computes the content signature from scratch.
func (up *Upgrade) digest() uint64 {
	hashBool := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	pkg := up.Pkg
	if pkg == nil {
		pkg = &Package{}
	}
	parts := []uint64{
		fingerprint.HashString(up.ID),
		fingerprint.HashString(pkg.Name),
		fingerprint.HashString(pkg.Version),
		fingerprint.HashString(up.Replaces),
		hashBool(up.Urgent),
	}
	for _, d := range pkg.Dependencies {
		parts = append(parts, fingerprint.HashString(d.Name), fingerprint.HashString(d.MinVersion))
	}
	for _, e := range up.Migrations {
		parts = append(parts, fingerprint.HashString(e.Path),
			fingerprint.HashBytes(e.SetData), fingerprint.HashBytes(e.Append), hashBool(e.Remove))
	}
	for _, f := range pkg.Files {
		parts = append(parts, fingerprint.HashString(f.Path), uint64(f.Type),
			fingerprint.HashString(f.Version), fingerprint.HashBytes(f.Data))
	}
	return fingerprint.CombineHashes(parts...)
}
