package deploy

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/distrib"
	"repro/internal/machine"
	"repro/internal/pkgmgr"
	"repro/internal/report"
)

// The controller seals the upgrade it hands members, so a vendor store
// keyed on Upgrade.Signature digests it once per rollout. These tests
// check that no Fixer can make that memo serve a member stale content.

var (
	staleBytes = []byte("release with the crash bug")
	fixedBytes = []byte("release with the crash fix")
)

func contentUpgrade(data []byte) *pkgmgr.Upgrade {
	return &pkgmgr.Upgrade{ID: "app-2.0", Replaces: "1.0", Pkg: &pkgmgr.Package{
		Name: "app", Version: "2.0", Files: []*machine.File{
			{Path: "/bin/app", Type: machine.TypeExecutable, Version: "2.0", Data: append([]byte(nil), data...)},
		}}}
}

// contentNode fails validation while the upgrade it is handed carries
// the stale bytes, whatever the upgrade's ID. For every call it records
// the file bytes a remote member would assemble: the manifest a shared
// vendor store resolves for the upgrade, rebuilt from the store's chunks.
type contentNode struct {
	t     *testing.T
	name  string
	store *distrib.Store

	mu       sync.Mutex
	received [][]byte
}

func (n *contentNode) Name() string { return n.name }

func (n *contentNode) receive(up *pkgmgr.Upgrade) []byte {
	t := n.t
	man := n.store.Manifest(up)
	cache := distrib.NewCache()
	chunks, err := n.store.Chunks(cache.Missing(man))
	if err != nil {
		t.Error(err)
		return nil
	}
	for _, ch := range chunks {
		if err := cache.Add(ch.Hash, ch.Data); err != nil {
			t.Error(err)
		}
	}
	got, err := cache.Assemble(man)
	if err != nil {
		t.Error(err)
		return nil
	}
	data := got.Pkg.Files[0].Data
	n.mu.Lock()
	n.received = append(n.received, data)
	n.mu.Unlock()
	return data
}

// staleNodes builds two clusters of a representative and two members,
// every one a contentNode on one shared vendor store.
func staleNodes(t *testing.T) ([]*Cluster, []*contentNode) {
	store := distrib.NewStore()
	var all []*contentNode
	mk := func(name string) *contentNode {
		n := &contentNode{t: t, name: name, store: store}
		all = append(all, n)
		return n
	}
	var clusters []*Cluster
	for _, id := range []string{"near", "far"} {
		clusters = append(clusters, &Cluster{ID: id, Distance: len(clusters) + 1,
			Representatives: []Node{mk(id + "-rep")},
			Others:          []Node{mk(id + "-1"), mk(id + "-2")}})
	}
	return clusters, all
}

func (n *contentNode) TestUpgrade(_ context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	data := n.receive(up)
	ok := !bytes.Equal(data, staleBytes)
	rep := &report.Report{UpgradeID: up.ID, Machine: n.name, Success: ok}
	if !ok {
		rep.FailedApps, rep.Reasons = []string{"app"}, []string{"crash"}
	}
	return rep, nil
}

func (n *contentNode) Integrate(_ context.Context, up *pkgmgr.Upgrade) error {
	n.receive(up)
	return nil
}

// runStaleFix deploys the stale release under a Fixer and checks that
// the rollout converges with every member's last delivery the fix.
func runStaleFix(t *testing.T, fix Fixer) {
	t.Helper()
	clusters, nodes := staleNodes(t)
	ctl := NewController(report.New(), fix)
	out, err := ctl.Deploy(context.Background(), PolicyBalanced, contentUpgrade(staleBytes), clusters)
	if err != nil {
		t.Fatal(err)
	}
	if out.Abandoned || out.Rounds != 1 || out.Integrated() != len(nodes) {
		t.Fatalf("outcome: abandoned=%v rounds=%d integrated=%d", out.Abandoned, out.Rounds, out.Integrated())
	}
	for _, n := range nodes {
		last := n.received[len(n.received)-1]
		if !bytes.Equal(last, fixedBytes) {
			t.Fatalf("%s last received %q, want the fixed bytes", n.name, last)
		}
	}
	// The representative that found the bug tested the stale bytes once,
	// then the fix: the next delivery after the Fixer ran was new content.
	rep := nodes[0]
	if len(rep.received) < 2 || !bytes.Equal(rep.received[0], staleBytes) || !bytes.Equal(rep.received[1], fixedBytes) {
		t.Fatalf("near-rep received %q, want the stale bytes then the fix", rep.received)
	}
}

// TestFixerMutatingInPlaceIsResealed: a Fixer that edits the upgrade it
// was handed — the controller's sealed copy — and returns the same
// pointer under the same ID must not leave members on the stale memo.
func TestFixerMutatingInPlaceIsResealed(t *testing.T) {
	runStaleFix(t, func(up *pkgmgr.Upgrade, _ []*report.Report) (*pkgmgr.Upgrade, bool) {
		copy(up.Pkg.Files[0].Data, fixedBytes)
		return up, true
	})
}

// TestFixerStructCopyWithSwappedPkg: a Fixer that returns a struct copy
// of the sealed upgrade with a new package carries the old memo pointer;
// the copy must still be digested as the new content.
func TestFixerStructCopyWithSwappedPkg(t *testing.T) {
	runStaleFix(t, func(up *pkgmgr.Upgrade, _ []*report.Report) (*pkgmgr.Upgrade, bool) {
		cp := *up
		cp.Pkg = contentUpgrade(fixedBytes).Pkg
		return &cp, true
	})
}

// TestDeploySealsAgainstCallerMutation: the caller's upgrade is copied at
// Deploy entry, so changing it while the rollout runs reaches no member.
func TestDeploySealsAgainstCallerMutation(t *testing.T) {
	clusters, nodes := staleNodes(t)
	up := contentUpgrade(fixedBytes)
	ctl := NewController(report.New(), nil)
	ctl.Observer = mutateOnStage{func() { copy(up.Pkg.Files[0].Data, staleBytes) }}
	out, err := ctl.Deploy(context.Background(), PolicyBalanced, up, clusters)
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != len(nodes) {
		t.Fatalf("integrated %d of %d", out.Integrated(), len(nodes))
	}
	for _, n := range nodes {
		for _, got := range n.received {
			if !bytes.Equal(got, fixedBytes) {
				t.Fatalf("%s received %q after the caller changed its upgrade", n.name, got)
			}
		}
	}
}

// mutateOnStage runs fn as each stage starts.
type mutateOnStage struct{ fn func() }

func (m mutateOnStage) OnEvent(ev Event) error {
	if ev.Type == EventStageStarted {
		m.fn()
	}
	return nil
}
