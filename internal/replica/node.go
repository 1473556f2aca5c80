// Live cluster reconfiguration: the Node role controller.
//
// A Node wraps one process's System and answers the question "what role
// does the cluster configuration currently assign me, and how do I get
// there from the role I hold?" — without restarting the process. The
// three transitions are:
//
//	follower → leader   stop the replication loop, drain, Promote; the
//	                    retention buffer replayed records built up lets
//	                    other replicas stream from the new leader
//	                    without re-bootstrapping.
//	leader → follower   fence, Demote, Attach a replication loop at the
//	                    new leader. The fence is the safety property of
//	                    the whole handover: a leader refuses to step
//	                    down while it holds committed records its
//	                    configured successor has not acknowledged, since
//	                    demoting would strand those records on a node
//	                    that no longer accepts the stream's authority.
//	follower, new addr  re-point the running loop (SetLeader).
//
// The drain step is what makes the two halves of a live handover
// coordinate without any channel beyond the replication stream itself.
// A promoting successor keeps short-polling its old leader — each poll
// doubles as an acknowledgement — replaying whatever still arrives. The
// old leader's fence clears exactly when those acks cover its last
// commit; it demotes; the successor's next poll sees "not a leader" and
// promotion proceeds with the full history. An unreachable old leader
// (crash failover) skips the wait: the configuration is the authority,
// and a dead leader's unreplicated tail is what its own fence will
// surface when it returns.
//
// Apply is idempotent — re-applying the configuration a node already
// satisfies is a no-op — and rejections leave the current role fully
// intact. Watch layers retry on top: a config rejected now (say, the
// successor is still one record behind, or the old leader has not
// demoted yet) applies cleanly a moment later without any operator
// involvement.

package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"intensional/internal/cluster"
	"intensional/internal/core"
)

// DefaultApplyRetryInterval is how often Watch retries a configuration
// that was rejected (typically by the demotion fence, waiting for the
// successor to catch up).
const DefaultApplyRetryInterval = 500 * time.Millisecond

// DefaultPromoteDrainBudget bounds one promotion's drain phase; past
// it, a still-leading old leader makes Apply fail (and Watch retry)
// rather than promote into a fork.
const DefaultPromoteDrainBudget = 5 * time.Second

// drainPollWait is the short poll window drain uses — handover
// latency, not steady-state efficiency, is what matters here.
const drainPollWait = 250 * time.Millisecond

// NodeOptions configure a Node.
type NodeOptions struct {
	// ID is this node's id in the cluster configuration.
	ID string
	// Follower is the Options template used when this node is (or
	// becomes) a follower: Dir, HTTP, timeouts, and backoff shape.
	// Leader and NodeID are overwritten from the configuration.
	Follower Options
	// Logf, when non-nil, receives role transition events.
	Logf func(format string, args ...any)
	// ApplyRetryInterval is how often Watch retries a rejected
	// configuration. Zero means DefaultApplyRetryInterval.
	ApplyRetryInterval time.Duration
	// PromoteDrainBudget bounds the drain phase of a promotion. Zero
	// means DefaultPromoteDrainBudget.
	PromoteDrainBudget time.Duration
}

// Node tracks and transitions one process's cluster role.
type Node struct {
	sys     *core.System
	tracker *Leader
	opts    NodeOptions

	mu         sync.Mutex
	role       cluster.Role // guarded by mu
	leaderAddr string       // guarded by mu — the leader's address; "" while this node leads
	follower   *Follower    // guarded by mu — non-nil while role is RoleFollower
}

// NewNode wraps a running system in a role controller. tracker is the
// process's shared Leader (it serves the replication endpoints and
// holds the fan-out table the demotion fence consults). f is the
// running replication loop when the node starts as a follower, nil when
// it starts as the leader; the starting role is read from the system
// itself. Runs before the Node is visible to any other goroutine.
//
//ilint:locked mu
func NewNode(sys *core.System, tracker *Leader, f *Follower, o NodeOptions) (*Node, error) {
	if o.ID == "" {
		return nil, fmt.Errorf("replica: NodeOptions.ID is required")
	}
	if tracker == nil {
		return nil, fmt.Errorf("replica: NewNode requires the process's Leader tracker")
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.ApplyRetryInterval <= 0 {
		o.ApplyRetryInterval = DefaultApplyRetryInterval
	}
	if o.PromoteDrainBudget <= 0 {
		o.PromoteDrainBudget = DefaultPromoteDrainBudget
	}
	n := &Node{sys: sys, tracker: tracker, opts: o}
	if sys.Follower() {
		if f == nil {
			return nil, fmt.Errorf("replica: follower-mode node needs its replication loop")
		}
		n.role = cluster.RoleFollower
		n.follower = f
		n.leaderAddr = f.LeaderAddr()
	} else {
		n.role = cluster.RoleLeader
	}
	return n, nil
}

// Role returns the role this node currently holds.
func (n *Node) Role() cluster.Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// LeaderAddr returns the address writes should go to: the tracked
// leader's address on a follower, "" on the leader itself.
func (n *Node) LeaderAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderAddr
}

// FollowerStatus returns the replication loop's status; the zero status
// while this node leads.
func (n *Node) FollowerStatus() cluster.FollowerStatus {
	n.mu.Lock()
	f := n.follower
	n.mu.Unlock()
	if f == nil {
		return cluster.FollowerStatus{}
	}
	return f.Status()
}

// Close stops the replication loop if one is running. The system itself
// stays open — it belongs to the caller.
func (n *Node) Close() {
	n.mu.Lock()
	f := n.follower
	n.mu.Unlock()
	if f != nil {
		f.Stop()
	}
}

// Apply transitions the node to the role cfg assigns it. A rejected
// transition (fence, validation, this node missing from the
// membership) leaves the current role untouched and returns the
// reason; callers retry once the world has moved on.
func (n *Node) Apply(cfg *cluster.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	self, ok := cfg.Node(n.opts.ID)
	if !ok {
		return fmt.Errorf("replica: node %q is not in the configuration", n.opts.ID)
	}
	lead, _ := cfg.Leader()

	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case self.Role == cluster.RoleLeader && n.role == cluster.RoleFollower:
		return n.promoteLocked()
	case self.Role == cluster.RoleFollower && n.role == cluster.RoleLeader:
		return n.demoteLocked(lead)
	case self.Role == cluster.RoleFollower && n.leaderAddr != lead.Addr:
		n.follower.SetLeader(lead.Addr)
		n.leaderAddr = lead.Addr
		n.opts.Logf("cluster: node %s now follows %s at %s", n.opts.ID, lead.ID, lead.Addr)
	}
	return nil
}

// promoteLocked is the follower→leader transition: stop the loop,
// drain the old leader, promote.
//
//ilint:locked mu
func (n *Node) promoteLocked() error {
	// A follower still owing its first bootstrap has neither installed a
	// snapshot nor replayed a local WAL: its catalog is not the cluster's
	// state, and it must not lead.
	if n.follower.needBoot.Load() {
		return fmt.Errorf("replica: promote %s: no base state yet — neither a snapshot installed nor a local WAL replayed", n.opts.ID)
	}
	n.follower.Stop()
	if err := n.drainLocked(); err != nil {
		// Cannot safely lead yet; keep replicating and let the caller
		// retry once the old leader has stepped down.
		n.follower.Start()
		return fmt.Errorf("replica: promote %s: %w", n.opts.ID, err)
	}
	if err := n.sys.Promote(); err != nil {
		n.follower.Start()
		return fmt.Errorf("replica: promote %s: %w", n.opts.ID, err)
	}
	n.follower = nil
	n.role = cluster.RoleLeader
	n.leaderAddr = ""
	n.opts.Logf("cluster: node %s promoted to leader at seq %d", n.opts.ID, n.sys.WalSeq())
	return nil
}

// drainLocked short-polls the old leader until it stops leading,
// replaying everything it still ships. Each poll carries this node's
// acknowledgement, which is what clears the old leader's demotion
// fence — the handover's two halves coordinate through the stream. The
// loop ends three ways: the old leader answers "not a leader" or is
// unreachable (drain complete — in the second case the configuration's
// authority overrides a leader we cannot hear), it keeps leading past
// the budget (error; retry later), or replication needs a snapshot
// (error; the restarted loop bootstraps first).
//
//ilint:locked mu
func (n *Node) drainLocked() error {
	cl := n.follower.cl()
	deadline := time.Now().Add(n.opts.PromoteDrainBudget)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), drainPollWait+n.follower.opts.ExchangeTimeout)
		batch, err := cl.Poll(ctx, n.sys.WalSeq(), drainPollWait, 0)
		cancel()
		switch {
		case errors.Is(err, core.ErrSnapshotNeeded):
			return fmt.Errorf("behind the old leader's retention; bootstrapping before promotion")
		case err != nil:
			// Demoted (503) or unreachable: nothing more will arrive.
			return nil
		}
		for _, rec := range batch.Records {
			if rerr := n.sys.ReplayRecord(rec.Seq, rec.Payload); rerr != nil {
				return fmt.Errorf("drain replay record %d: %w", rec.Seq, rerr)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("old leader at %s still leads after %s; retry once it demotes",
				cl.Base, n.opts.PromoteDrainBudget)
		}
	}
}

// demoteLocked is the leader→follower transition, fenced: it refuses
// while the configured successor has not acknowledged every record this
// leader has committed.
//
//ilint:locked mu
func (n *Node) demoteLocked(lead cluster.Node) error {
	seq, err := n.fence(lead)
	if err != nil {
		return fmt.Errorf("replica: refusing to demote %s: %w", n.opts.ID, err)
	}
	if err := n.sys.Demote(seq); err != nil {
		return fmt.Errorf("replica: demote %s: %w", n.opts.ID, err)
	}
	o := n.opts.Follower
	o.Leader = lead.Addr
	o.NodeID = n.opts.ID
	f, err := Attach(n.sys, o)
	if err != nil {
		// Demoted but cannot follow: undo, or the node would be a
		// write-refusing orphan. Promote on a just-demoted durable system
		// cannot fail its own checks.
		if perr := n.sys.Promote(); perr != nil {
			return fmt.Errorf("replica: demote %s: attach failed (%v) and promote-back failed: %w", n.opts.ID, err, perr)
		}
		return fmt.Errorf("replica: demote %s: %w", n.opts.ID, err)
	}
	f.Start()
	n.follower = f
	n.role = cluster.RoleFollower
	n.leaderAddr = lead.Addr
	n.opts.Logf("cluster: node %s demoted; now follows %s at %s", n.opts.ID, lead.ID, lead.Addr)
	return nil
}

// fence decides whether stepping down for the named successor is safe:
// every committed record must be acknowledged by it. The fan-out table
// knows, because a follower's poll position is its acknowledgement. A
// successor that has never streamed from this node is refused even when
// nothing is committed: this node's base state reaches it only through
// a bootstrap, which its first poll follows. fence returns the sequence
// it checked, for Demote to hold the commit point to.
func (n *Node) fence(lead cluster.Node) (uint64, error) {
	cur := n.sys.WalSeq()
	acked, ok := n.tracker.AckedSeq(lead.ID)
	if !ok {
		return 0, fmt.Errorf("successor %q has never streamed from this node", lead.ID)
	}
	if acked < cur {
		return 0, fmt.Errorf("successor %q acknowledged seq %d but this node committed %d — %d unreplicated record(s)",
			lead.ID, acked, cur, cur-acked)
	}
	return cur, nil
}

// Watch applies the store's current configuration, then every change,
// until stop closes. The store only delivers changes made after the
// subscription, so a configuration installed between the node's start
// and this call is read with Load instead of being missed. A rejected
// configuration (most often the demotion fence waiting for the
// successor's final poll) is retried every ApplyRetryInterval until it
// applies or a newer configuration replaces it.
func (n *Node) Watch(stop <-chan struct{}, store cluster.WatchableStore) {
	ch := store.Watch(stop)
	ticker := time.NewTicker(n.opts.ApplyRetryInterval)
	defer ticker.Stop()
	pending, _ := store.Load() //ilint:allow errdrop — an invalid stored configuration is skipped, as a watcher skips one
	var lastErr string
	for {
		if pending != nil {
			if err := n.Apply(pending); err != nil {
				// Log each distinct reason once, not once per retry tick.
				if err.Error() != lastErr {
					lastErr = err.Error()
					n.opts.Logf("cluster: configuration not applied: %v (retrying)", err)
				}
			} else {
				pending = nil
				lastErr = ""
			}
		}
		select {
		case cfg, ok := <-ch:
			if !ok {
				return
			}
			pending = cfg
			lastErr = ""
		case <-ticker.C:
		case <-stop:
			return
		}
	}
}
