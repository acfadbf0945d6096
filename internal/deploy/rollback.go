package deploy

import (
	"context"
	"fmt"
	"time"

	"repro/internal/pkgmgr"
	"repro/internal/telemetry"
)

// RollbackOutcome summarises a rollback pass.
type RollbackOutcome struct {
	// BaselineID is the version the fleet was driven back to.
	BaselineID string
	// Reverted lists (in cluster/node order) the members restored to the
	// baseline, including members a resume cursor reported already done.
	Reverted []string
	// Skipped maps member name to the reason it was left behind —
	// quarantined members and members whose transient-retry budget
	// exhausted mid-revert. A skipped member never blocks completion.
	Skipped map[string]string
	// Transfer is the wire traffic the rollback itself caused, when the
	// controller has a Transfer source configured.
	Transfer TransferStats
}

// Rollback drives every member that integrated some version of the
// abandoned upgrade back to the baseline, through the same chunk
// machinery in reverse — the agents' self-seeded caches still hold the
// baseline's chunks, so the reverse manifests resolve nearly for free.
//
// Write-ahead discipline mirrors the forward path: EventRollbackStarted
// must be durable before the first member reverts, every revert is
// journaled after it lands (so a crash re-reverts at most the one member
// in flight — integration of the baseline is idempotent), and members
// already recorded by a resume (done) are never touched again. A
// quarantined or unreachable member is skipped with a journaled reason
// rather than blocking completion; EventRollbackCompleted seals the pass.
func (ctl *Controller) Rollback(ctx context.Context, baseline *pkgmgr.Upgrade, clusters []*Cluster, out *Outcome, done map[string]bool) (*RollbackOutcome, error) {
	baseline = baseline.Seal()
	ro := &RollbackOutcome{BaselineID: baseline.ID, Skipped: map[string]string{}}
	emit := func(ev Event) error {
		if ctl.Observer == nil {
			return nil
		}
		if err := ctl.Observer.OnEvent(ev); err != nil {
			return fmt.Errorf("deploy: rollback observer: %w", err)
		}
		return nil
	}
	var before TransferStats
	if ctl.Transfer != nil {
		before = ctl.Transfer()
	}
	if err := emit(Event{Type: EventRollbackStarted, Stage: -1,
		UpgradeID: baseline.ID, PrevID: out.FinalID}); err != nil {
		return nil, err
	}
	if ctl.RollbackMode != nil {
		ctl.RollbackMode(true)
		defer ctl.RollbackMode(false)
	}
	for _, c := range clusters {
		for _, n := range append(append([]Node(nil), c.Representatives...), c.Others...) {
			name := n.Name()
			st := out.Nodes[name]
			if done[name] {
				// A previous run already journaled this member's revert
				// (a resumed cursor may even have folded it back to the
				// baseline already); reflect it in the outcome without
				// touching the machine again.
				if st != nil {
					st.UpgradeID = baseline.ID
				}
				ro.Reverted = append(ro.Reverted, name)
				continue
			}
			if st == nil || st.UpgradeID == "" || st.UpgradeID == baseline.ID {
				continue // never left the baseline: nothing to undo
			}
			if st.Quarantined {
				ro.Skipped[name] = "quarantined"
				if err := emit(Event{Type: EventRollbackSkipped, Stage: -1, Node: name,
					Cluster: c.ID, UpgradeID: baseline.ID, Reason: "quarantined"}); err != nil {
					return nil, err
				}
				continue
			}
			sctx, end := telemetry.StartSpan(ctx, "rollback", name, name)
			endTimer := ctl.memberHist().With("rollback").Time()
			err := ctl.retryTransient(sctx, name, func(ctx context.Context) error {
				t0 := time.Now()
				if err := ctl.Budget.Acquire(ctx); err != nil {
					return err
				}
				ctl.budgetHist().With("rollback").ObserveSince(t0)
				defer ctl.Budget.Release()
				return n.Integrate(ctx, baseline)
			})
			endTimer()
			end(err)
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err() // abort: resumable from the journal
				}
				if !IsTransient(err) {
					return nil, fmt.Errorf("deploy: rolling back %s to %s: %w", name, baseline.ID, err)
				}
				// Unreachable through the whole retry budget: leave it
				// behind (journaled) so the fleet's rollback completes.
				st.Quarantined = true
				ro.Skipped[name] = err.Error()
				if err := emit(Event{Type: EventRollbackSkipped, Stage: -1, Node: name,
					Cluster: c.ID, UpgradeID: baseline.ID, Reason: err.Error()}); err != nil {
					return nil, err
				}
				continue
			}
			prev := st.UpgradeID
			st.UpgradeID = baseline.ID
			ro.Reverted = append(ro.Reverted, name)
			if err := emit(Event{Type: EventRolledBack, Stage: -1, Node: name,
				Cluster: c.ID, UpgradeID: baseline.ID, PrevID: prev}); err != nil {
				return nil, err
			}
		}
	}
	if err := emit(Event{Type: EventRollbackCompleted, Stage: -1, UpgradeID: baseline.ID}); err != nil {
		return nil, err
	}
	if ctl.Transfer != nil {
		ro.Transfer = ctl.Transfer().Sub(before)
		out.Transfer = out.Transfer.Add(ro.Transfer)
	}
	out.RolledBack = true
	out.Rollback = ro
	return ro, nil
}
