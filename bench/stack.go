package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"intensional/internal/core"
	"intensional/internal/replica"
	"intensional/internal/server"
)

// node is one served system: what an iqpd process is.
type node struct {
	sys     *core.System
	repl    *replica.Follower // nil on a leader
	handler http.Handler
	http    *http.Server
	url     string
	served  chan error // Serve's return value
}

// serve puts a system behind net/http on a loopback port, wired as
// cmd/iqpd wires it.
func serve(sys *core.System, opts server.Options) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	opts.ErrorLog = os.Stderr
	h := server.New(sys, opts).Handler()
	n := &node{
		sys:     sys,
		handler: h,
		http:    &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		url:     "http://" + ln.Addr().String(),
		served:  make(chan error, 1),
	}
	go func() { n.served <- n.http.Serve(ln) }()
	return n, nil
}

// stop shuts the listener down, waits for the serving goroutine, and
// closes the system (and the replication loop in front of it).
func (n *node) stop() error {
	var errs []error
	if n.repl != nil {
		// Stop the loop first: its parked long poll would otherwise
		// hold the leader's shutdown for the whole poll window.
		n.repl.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.http.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("shutdown %s: %w", n.url, err))
	}
	if err := <-n.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, fmt.Errorf("serve %s: %w", n.url, err))
	}
	if n.repl != nil {
		errs = append(errs, n.repl.Close())
	} else {
		errs = append(errs, n.sys.Close())
	}
	return errors.Join(errs...)
}

// bed is one stood-up stack with the model and the request streams that
// belong to its data.
type bed struct {
	dir      string // holds db, db.wal and, when replicated, follower*
	m        *model
	leader   *node
	follower *node // nil unless the workload is replicated
	streams  [nStreams]*stream
	// written is the highest WAL sequence any writer was acknowledged
	// at: the read-your-writes token readers carry.
	written atomic.Uint64
}

// publish records an acknowledged write. Two writers may finish out of
// order, so the sequence only ever moves up.
func (b *bed) publish(seq uint64) {
	for {
		cur := b.written.Load()
		if seq <= cur || b.written.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// token is the newest write's read-your-writes token, "" before any.
func (b *bed) token() string {
	if seq := b.written.Load(); seq > 0 {
		return fmt.Sprintf("w%d", seq)
	}
	return ""
}

func (b *bed) dbDir() string { return filepath.Join(b.dir, "db") }

func (b *bed) node(id nodeID) *node {
	if id == onFollower {
		return b.follower
	}
	return b.leader
}

// openLeader opens the bed's database durably and serves it.
func (b *bed) openLeader(checkpointBytes int64) error {
	sys, err := core.OpenDurable(b.dbDir(), core.DurableOptions{CheckpointBytes: checkpointBytes})
	if err != nil {
		return err
	}
	n, err := serve(sys, server.Options{})
	if err != nil {
		return errors.Join(err, sys.Close())
	}
	b.leader = n
	return nil
}

// startFollower opens an empty follower directory, points it at the
// leader, waits until it has bootstrapped and caught up, and serves it.
// It returns how long empty-to-caught-up took.
func (b *bed) startFollower() (time.Duration, error) {
	start := time.Now()
	f, err := replica.Open(replica.Options{
		Dir:    filepath.Join(b.dir, "follower"),
		Leader: b.leader.url,
		NodeID: "bench-follower",
	})
	if err != nil {
		return 0, err
	}
	f.Start()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := f.System().WaitForSeq(ctx, b.leader.sys.WalSeq()); err != nil {
		return 0, errors.Join(fmt.Errorf("follower did not catch up: %w", err), f.Close())
	}
	took := time.Since(start)
	n, err := serve(f.System(), server.Options{LeaderAddr: b.leader.url, FollowerStatus: f.Status})
	if err != nil {
		return 0, errors.Join(err, f.Close())
	}
	n.repl = f
	b.follower = n
	return took, nil
}

// stopFollower stops the follower's server, loop and system.
func (b *bed) stopFollower() error {
	if b.follower == nil {
		return nil
	}
	err := b.follower.stop()
	b.follower = nil
	return err
}

// stopLeader stops the leader's server and closes its system without a
// checkpoint: whatever the WAL holds is what the next open replays.
func (b *bed) stopLeader() error {
	if b.leader == nil {
		return nil
	}
	err := b.leader.stop()
	b.leader = nil
	return err
}

// close stops whatever still runs and removes the bed's files.
func (b *bed) close() error {
	return errors.Join(b.stopFollower(), b.stopLeader(), os.RemoveAll(b.dir))
}
