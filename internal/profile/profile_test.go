package profile

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/resource"
)

// fakeSource profiles a fixed machine, optionally failing, and records
// concurrency so tests can assert the pool bound.
type fakeSource struct {
	m    Machine
	err  error
	slow chan struct{} // if non-nil, Profile blocks until closed

	active  *int32
	maxSeen *int32
}

func (f *fakeSource) Name() string { return f.m.Name }

func (f *fakeSource) Profile(_ context.Context, app string, vendor *resource.Set) (Machine, error) {
	if f.active != nil {
		n := atomic.AddInt32(f.active, 1)
		for {
			max := atomic.LoadInt32(f.maxSeen)
			if n <= max || atomic.CompareAndSwapInt32(f.maxSeen, max, n) {
				break
			}
		}
		defer atomic.AddInt32(f.active, -1)
	}
	if f.slow != nil {
		<-f.slow
	}
	if f.err != nil {
		return Machine{}, f.err
	}
	return f.m, nil
}

func set(kind resource.Kind, keys ...string) *resource.Set {
	s := resource.NewSet(len(keys))
	for i, k := range keys {
		s.Add(resource.Item{Key: k, Hash: uint64(i + 1), Kind: kind})
	}
	return s
}

func machineProfile(name string, parsed, content []string, appSet string) Machine {
	return Machine{
		Name:        name,
		ParsedDiff:  set(resource.Parsed, parsed...),
		ContentDiff: set(resource.Content, content...),
		AppSet:      appSet,
	}
}

func TestCollectDeterministicOrderAtAnyParallelism(t *testing.T) {
	var want []string
	mkSources := func() []Source {
		var srcs []Source
		for i := 0; i < 23; i++ {
			name := fmt.Sprintf("m%02d", i)
			srcs = append(srcs, &fakeSource{m: machineProfile(name, []string{"p." + name}, nil, "apps")})
		}
		return srcs
	}
	for i := 0; i < 23; i++ {
		want = append(want, fmt.Sprintf("m%02d", i))
	}
	for _, par := range []int{0, 1, 3, 64} {
		ms, err := Collect(context.Background(), mkSources(), "mysql", resource.NewSet(0), par)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		var got []string
		for _, m := range ms {
			got = append(got, m.Name)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("parallelism %d: order = %v", par, got)
		}
	}
}

func TestCollectBoundsParallelism(t *testing.T) {
	var active, maxSeen int32
	release := make(chan struct{})
	var srcs []Source
	for i := 0; i < 16; i++ {
		srcs = append(srcs, &fakeSource{
			m:      machineProfile(fmt.Sprintf("m%02d", i), nil, nil, ""),
			slow:   release,
			active: &active, maxSeen: &maxSeen,
		})
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := Collect(context.Background(), srcs, "mysql", nil, 4); err != nil {
			t.Errorf("collect: %v", err)
		}
	}()
	// Hold every Profile call blocked until the pool is saturated: all
	// four workers must park inside a source while twelve sources wait —
	// an unbounded implementation would push active past four here.
	deadline := time.Now().Add(5 * time.Second)
	for atomic.LoadInt32(&active) < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("pool never saturated: active = %d", atomic.LoadInt32(&active))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := atomic.LoadInt32(&maxSeen); got != 4 {
		t.Fatalf("max concurrent profiles = %d, want exactly 4", got)
	}
}

func TestCollectErrorNamesFailingSource(t *testing.T) {
	srcs := []Source{
		&fakeSource{m: machineProfile("ok-1", nil, nil, "")},
		&fakeSource{m: machineProfile("bad-early", nil, nil, ""), err: errors.New("disk on fire")},
		&fakeSource{m: machineProfile("bad-late", nil, nil, ""), err: errors.New("also broken")},
	}
	// Concurrent: a failure stops the collection, so whichever failing
	// source ran first is reported — never a healthy one.
	_, err := Collect(context.Background(), srcs, "mysql", nil, 8)
	if err == nil {
		t.Fatal("collect ignored failing source")
	}
	if !strings.Contains(err.Error(), "bad-") {
		t.Fatalf("error does not name a failing source: %v", err)
	}
	if strings.Contains(err.Error(), "ok-1") {
		t.Fatalf("error blames a healthy source: %v", err)
	}
	// Serial: deterministic, the first failing source in order.
	_, err = Collect(context.Background(), srcs, "mysql", nil, 1)
	if err == nil || !strings.Contains(err.Error(), "bad-early") || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("serial error does not name first failing source: %v", err)
	}
}

func TestKeyDistinguishesProfiles(t *testing.T) {
	a := machineProfile("a", []string{"p.x"}, []string{"c.y"}, "apps1")
	b := machineProfile("b", []string{"p.x"}, []string{"c.y"}, "apps1") // same profile, other name
	c := machineProfile("c", []string{"p.x"}, []string{"c.y"}, "apps2") // app set differs
	d := machineProfile("d", []string{"p.x"}, []string{"c.z"}, "apps1") // content differs
	if a.Key() != b.Key() {
		t.Fatal("identical profiles have different keys")
	}
	if a.Key() == c.Key() || a.Key() == d.Key() {
		t.Fatal("distinct profiles share a key")
	}
	if n := Distinct([]Machine{a, b, c, d}); n != 3 {
		t.Fatalf("Distinct = %d, want 3", n)
	}
}

type nullNode struct{ name string }

func (n *nullNode) Name() string { return n.name }
func (n *nullNode) TestUpgrade(context.Context, *pkgmgr.Upgrade) (*report.Report, error) {
	return nil, nil
}
func (n *nullNode) Integrate(context.Context, *pkgmgr.Upgrade) error { return nil }

func TestAssembleSelectsRepsInNameOrder(t *testing.T) {
	clusters := []*cluster.Cluster{
		{ID: 0, Distance: 1, Machines: []string{"a", "b", "c"}},
		{ID: 1, Distance: 4, Machines: []string{"z"}},
	}
	nodes := map[string]deploy.Node{}
	for _, n := range []string{"a", "b", "c", "z"} {
		nodes[n] = &nullNode{name: n}
	}
	dcs, err := Assemble(clusters, 2, func(name string) deploy.Node { return nodes[name] })
	if err != nil {
		t.Fatal(err)
	}
	if len(dcs) != 2 {
		t.Fatalf("clusters = %d", len(dcs))
	}
	if dcs[0].ID != deploy.ClusterName(0) || dcs[0].Distance != 1 {
		t.Fatalf("cluster 0 = %+v", dcs[0])
	}
	if len(dcs[0].Representatives) != 2 || dcs[0].Representatives[0].Name() != "a" ||
		dcs[0].Representatives[1].Name() != "b" {
		t.Fatalf("reps = %v", dcs[0].Representatives)
	}
	if len(dcs[0].Others) != 1 || dcs[0].Others[0].Name() != "c" {
		t.Fatalf("others = %v", dcs[0].Others)
	}
	// A singleton cluster still gets its (only) member as representative,
	// even with repsPerCluster below one.
	dcs, err = Assemble(clusters[1:], 0, func(name string) deploy.Node { return nodes[name] })
	if err != nil {
		t.Fatal(err)
	}
	if len(dcs[0].Representatives) != 1 || len(dcs[0].Others) != 0 {
		t.Fatalf("singleton assembly = %+v", dcs[0])
	}
}

func TestAssembleRejectsUnknownMachine(t *testing.T) {
	clusters := []*cluster.Cluster{{ID: 0, Machines: []string{"ghost"}}}
	_, err := Assemble(clusters, 1, func(string) deploy.Node { return nil })
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("err = %v", err)
	}
}

func TestCollectEmptyFleet(t *testing.T) {
	ms, err := Collect(context.Background(), nil, "mysql", nil, 4)
	if err != nil || len(ms) != 0 {
		t.Fatalf("empty fleet: %v %v", ms, err)
	}
}
