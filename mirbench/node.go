package main

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/deploy"
	"repro/internal/pkgmgr"
	"repro/internal/report"
)

// opCounts are fleet-wide member-RPC counters.
type opCounts struct {
	attempts, errors, retries atomic.Int64
}

// countingNode is the benchmark's deploy.Node around one member's real
// node (transport.Server.Node). It counts every RPC attempt, error and
// retry, stamps when the member's integrate RPC returned, and in a
// traced run records each call as a span.
//
// The controller never calls one member concurrently — a member is
// tested on one pool worker, and integrated after the pool drains — so
// the per-member fields need no lock.
type countingNode struct {
	inner deploy.Node
	ops   *opCounts
	spans *spanLog

	seen       map[string]bool // op + upgrade ID pairs already attempted
	integrated time.Time       // when the last integrate RPC returned
}

func newCountingNode(inner deploy.Node, ops *opCounts, spans *spanLog) *countingNode {
	return &countingNode{inner: inner, ops: ops, spans: spans, seen: make(map[string]bool, 2)}
}

func (n *countingNode) Name() string { return n.inner.Name() }

// attempt books one call of op for upgrade id. A repeat of the same op
// for the same upgrade is a retry; a fixed upgrade (a new id) is not.
func (n *countingNode) attempt(op, id string) {
	n.ops.attempts.Add(1)
	key := op + "\x00" + id
	if n.seen[key] {
		n.ops.retries.Add(1)
	}
	n.seen[key] = true
}

func (n *countingNode) done(kind string, t0 time.Time, err error) time.Time {
	if err != nil {
		n.ops.errors.Add(1)
	}
	return n.spans.record(kind, n.Name(), t0, err)
}

func (n *countingNode) TestUpgrade(ctx context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	n.attempt("test", up.ID)
	t0 := time.Now()
	rep, err := n.inner.TestUpgrade(ctx, up)
	n.done("test-rpc", t0, err)
	return rep, err
}

func (n *countingNode) Integrate(ctx context.Context, up *pkgmgr.Upgrade) error {
	n.attempt("integrate", up.ID)
	t0 := time.Now()
	err := n.inner.Integrate(ctx, up)
	n.integrated = n.done("integrate-rpc", t0, err)
	return err
}
