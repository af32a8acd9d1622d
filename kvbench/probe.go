package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
)

// The benchmark measures layers from outside, through public entry points
// only: every node is attached through a nodeProbe (node.Handler), which in a
// traced deployment hands the real handler a probeEnv (node.Env), and every
// replica's application is an appProbe (app.Incremental). Untraced deployments
// keep only the probe's control hook, one atomic load per callback.

// control lets the harness run code on every probed node's own goroutine,
// where reading a handler's plain (unsynchronized) counters is race-free.
// Bumping gen asks each probe to call its serve function once, after the
// callback it is in; the probe's done field publishes completion.
type control struct {
	gen atomic.Uint64
}

// nodeCounters are one node's traced counters. They are atomics so the
// harness can take window deltas at any time.
type nodeCounters struct {
	kindN   [256]atomic.Int64 // OnEnvelope invocations by msg.Kind
	kindNs  [256]atomic.Int64 // their self time
	timerNs atomic.Int64      // OnTimer self time

	sendN     atomic.Int64
	sendNs    atomic.Int64
	sendBytes atomic.Int64 // envelope body bytes

	chargeN     [16]atomic.Int64 // Env.Charge calls by node.ChargeKind
	chargeBytes [16]atomic.Int64
}

// mailbox matches in-router deliveries to their Send by envelope pointer, so
// the traced run can report how long envelopes wait in a node's mailbox.
// Only envelopes addressed to a node of the same router are recorded:
// bridge-crossing envelopes are re-decoded on the far side under a new
// pointer and would never be matched, so recording them would leak.
type mailbox struct {
	local func(msg.NodeID) bool

	mu      sync.Mutex
	pending map[*msg.Envelope]time.Time
}

func newMailbox(local func(msg.NodeID) bool) *mailbox {
	return &mailbox{local: local, pending: make(map[*msg.Envelope]time.Time)}
}

func (m *mailbox) sent(e *msg.Envelope, at time.Time) {
	if !m.local(e.To) {
		return
	}
	m.mu.Lock()
	m.pending[e] = at
	m.mu.Unlock()
}

// delivered returns the time e was sent, if it was recorded, and forgets it.
func (m *mailbox) delivered(e *msg.Envelope) (time.Time, bool) {
	m.mu.Lock()
	at, ok := m.pending[e]
	if ok {
		delete(m.pending, e)
	}
	m.mu.Unlock()
	return at, ok
}

func (m *mailbox) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// nodeProbe wraps one node's handler.
type nodeProbe struct {
	inner node.Handler
	ctl   *control
	serve func() // runs on the node's goroutine when ctl.gen moves
	seen  uint64 // ctl generation last served (node goroutine only)
	done  atomic.Uint64

	// Traced deployments only (c == nil otherwise).
	c     *nodeCounters
	box   *mailbox // nil for nodes whose in-router sends are not matched
	wait  *hist    // mailbox wait of matched deliveries, node goroutine only
	env   probeEnv
	child time.Duration // Send and application time inside the current callback
}

var _ node.Handler = (*nodeProbe)(nil)

func newNodeProbe(inner node.Handler, ctl *control, serve func()) *nodeProbe {
	return &nodeProbe{inner: inner, ctl: ctl, serve: serve}
}

// trace turns on per-layer tracing for the probe.
func (p *nodeProbe) trace(box *mailbox) {
	p.c = new(nodeCounters)
	p.box = box
	p.wait = new(hist)
	p.env.p = p
}

// poll serves a pending control request.
func (p *nodeProbe) poll() {
	if g := p.ctl.gen.Load(); g != p.seen {
		p.seen = g
		if p.serve != nil {
			p.serve()
		}
		p.done.Store(g)
	}
}

// OnStart implements node.Handler.
func (p *nodeProbe) OnStart(env node.Env) {
	if p.c != nil {
		p.env.inner = env
		env = &p.env
	}
	p.inner.OnStart(env)
}

// OnEnvelope implements node.Handler.
func (p *nodeProbe) OnEnvelope(env node.Env, e *msg.Envelope) {
	if p.c == nil {
		p.inner.OnEnvelope(env, e)
		p.poll()
		return
	}
	start := time.Now()
	if p.box != nil {
		if at, ok := p.box.delivered(e); ok {
			p.wait.record(start.Sub(at))
		}
	}
	p.child = 0
	p.env.inner = env
	p.inner.OnEnvelope(&p.env, e)
	self := time.Since(start) - p.child
	p.c.kindN[e.Kind].Add(1)
	p.c.kindNs[e.Kind].Add(int64(self))
	p.poll()
}

// OnTimer implements node.Handler.
func (p *nodeProbe) OnTimer(env node.Env, key node.TimerKey) {
	if p.c == nil {
		p.inner.OnTimer(env, key)
		p.poll()
		return
	}
	start := time.Now()
	p.child = 0
	p.env.inner = env
	p.inner.OnTimer(&p.env, key)
	self := time.Since(start) - p.child
	p.c.timerNs.Add(int64(self))
	p.poll()
}

// probeEnv forwards every node.Env method to the runtime's Env, counting and
// timing Send and counting Charge by kind and bytes.
type probeEnv struct {
	inner node.Env
	p     *nodeProbe
}

var _ node.Env = (*probeEnv)(nil)

func (e *probeEnv) Self() msg.NodeID   { return e.inner.Self() }
func (e *probeEnv) Now() time.Duration { return e.inner.Now() }

func (e *probeEnv) Send(env *msg.Envelope) {
	start := time.Now()
	if e.p.box != nil {
		e.p.box.sent(env, start)
	}
	e.inner.Send(env)
	d := time.Since(start)
	e.p.child += d
	e.p.c.sendN.Add(1)
	e.p.c.sendNs.Add(int64(d))
	e.p.c.sendBytes.Add(int64(len(env.Body)))
}

func (e *probeEnv) SetTimer(after time.Duration, key node.TimerKey) { e.inner.SetTimer(after, key) }
func (e *probeEnv) CancelTimer(key node.TimerKey)                   { e.inner.CancelTimer(key) }
func (e *probeEnv) Rand() *rand.Rand                                { return e.inner.Rand() }

func (e *probeEnv) Charge(p node.Profile, k node.ChargeKind, n int) {
	if int(k) < len(e.p.c.chargeN) {
		e.p.c.chargeN[k].Add(1)
		e.p.c.chargeBytes[k].Add(int64(n))
	}
	e.inner.Charge(p, k, n)
}

func (e *probeEnv) Logf(format string, args ...any) { e.inner.Logf(format, args...) }

// appCounters are one replica application's traced counters.
type appCounters struct {
	execNs     atomic.Int64
	snapshots  atomic.Int64 // SnapshotIter calls
	snapshotNs atomic.Int64 // SnapshotIter plus every Next of its iterator
}

// appProbe wraps an incremental application, timing Execute and snapshot
// iteration. It implements app.Incremental itself, so app.SnapshotIterOf
// keeps the incremental path instead of materializing Snapshot().
type appProbe struct {
	inner app.Incremental
	c     appCounters
	owner *nodeProbe // its replica's probe: app time is child time there
}

var _ app.Incremental = (*appProbe)(nil)

func (a *appProbe) Execute(op []byte) []byte {
	start := time.Now()
	res := a.inner.Execute(op)
	d := time.Since(start)
	a.account(d)
	a.c.execNs.Add(int64(d))
	return res
}

// account charges d to the owning callback's child time. Execute runs
// inside the replica's handler, except for the preload before the node
// starts, when there is no owner yet.
func (a *appProbe) account(d time.Duration) {
	if a.owner != nil {
		a.owner.child += d
	}
}

func (a *appProbe) IsRead(op []byte) bool         { return a.inner.IsRead(op) }
func (a *appProbe) Keys(op []byte) []string       { return a.inner.Keys(op) }
func (a *appProbe) Snapshot() []byte              { return a.inner.Snapshot() }
func (a *appProbe) Restore(snapshot []byte) error { return a.inner.Restore(snapshot) }
func (a *appProbe) RestoreSink() app.RestoreSink  { return a.inner.RestoreSink() }

func (a *appProbe) SnapshotIter(maxPiece int) app.ChunkIterator {
	start := time.Now()
	it := &iterProbe{inner: a.inner.SnapshotIter(maxPiece), a: a}
	d := time.Since(start)
	a.account(d)
	a.c.snapshots.Add(1)
	a.c.snapshotNs.Add(int64(d))
	return it
}

// iterProbe times each piece of a snapshot iteration.
type iterProbe struct {
	inner app.ChunkIterator
	a     *appProbe
}

func (it *iterProbe) Next() ([]byte, bool) {
	start := time.Now()
	piece, ok := it.inner.Next()
	d := time.Since(start)
	it.a.account(d)
	it.a.c.snapshotNs.Add(int64(d))
	return piece, ok
}
