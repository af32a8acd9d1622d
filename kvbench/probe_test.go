package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/realnet"
)

// A wrapped store must stay on the incremental snapshot path: otherwise
// hybster materializes Snapshot() at every checkpoint and the traced run
// measures a different program.
func TestAppProbeKeepsIncrementalPath(t *testing.T) {
	st := app.NewStore()
	a := &appProbe{inner: st}
	for i := 0; i < 100; i++ {
		a.Execute(fmt.Appendf(nil, "PUT key%03d value", i))
	}
	it := app.SnapshotIterOf(a, 64)
	if _, ok := it.(*iterProbe); !ok {
		t.Fatalf("SnapshotIterOf(appProbe) = %T, want the probe's incremental iterator", it)
	}
	var got []byte
	for {
		p, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, p...)
	}
	if !bytes.Equal(got, st.Snapshot()) {
		t.Fatal("iterated snapshot differs from the store's snapshot")
	}
	if n := a.c.snapshots.Load(); n != 1 {
		t.Fatalf("snapshots = %d, want 1", n)
	}
	if a.c.execNs.Load() <= 0 {
		t.Fatal("execution time not recorded")
	}
}

// recordingEnv records which node.Env methods were called.
type recordingEnv struct {
	calls map[string]int
	rng   *rand.Rand
}

func (e *recordingEnv) hit(name string)                           { e.calls[name]++ }
func (e *recordingEnv) Self() msg.NodeID                          { e.hit("Self"); return 7 }
func (e *recordingEnv) Now() time.Duration                        { e.hit("Now"); return time.Second }
func (e *recordingEnv) Send(*msg.Envelope)                        { e.hit("Send") }
func (e *recordingEnv) SetTimer(time.Duration, node.TimerKey)     { e.hit("SetTimer") }
func (e *recordingEnv) CancelTimer(node.TimerKey)                 { e.hit("CancelTimer") }
func (e *recordingEnv) Rand() *rand.Rand                          { e.hit("Rand"); return e.rng }
func (e *recordingEnv) Charge(node.Profile, node.ChargeKind, int) { e.hit("Charge") }
func (e *recordingEnv) Logf(string, ...any)                       { e.hit("Logf") }

// The wrapped Env must forward every method of node.Env.
func TestProbeEnvForwardsEveryMethod(t *testing.T) {
	inner := &recordingEnv{calls: make(map[string]int), rng: rand.New(rand.NewSource(1))}
	p := newNodeProbe(nil, &control{}, nil)
	p.trace(nil)
	p.env.inner = inner
	var env node.Env = &p.env

	if env.Self() != 7 || env.Now() != time.Second || env.Rand() != inner.rng {
		t.Fatal("forwarded results differ from the inner Env's")
	}
	env.Send(&msg.Envelope{From: 7, To: 8, Kind: msg.KindCommit, Body: make([]byte, 40)})
	env.SetTimer(time.Millisecond, node.TimerKey{Kind: "k"})
	env.CancelTimer(node.TimerKey{Kind: "k"})
	env.Charge(node.ProfileJava, node.ChargeMAC, 32)
	env.Logf("x")

	iface := reflect.TypeOf((*node.Env)(nil)).Elem()
	var missing []string
	for i := 0; i < iface.NumMethod(); i++ {
		if inner.calls[iface.Method(i).Name] != 1 {
			missing = append(missing, iface.Method(i).Name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Fatalf("methods not forwarded exactly once: %v", missing)
	}
	c := p.c
	if c.sendN.Load() != 1 || c.sendBytes.Load() != 40 {
		t.Fatalf("send counted %d envelopes / %d bytes, want 1 / 40", c.sendN.Load(), c.sendBytes.Load())
	}
	if c.chargeN[node.ChargeMAC].Load() != 1 || c.chargeBytes[node.ChargeMAC].Load() != 32 {
		t.Fatal("charge not counted by kind and bytes")
	}
}

// Envelopes leaving through the bridge are re-decoded on the far side under
// a new pointer and never match: the mailbox must not record them at all.
func TestMailboxRecordsOnlyInRouterDeliveries(t *testing.T) {
	box := newMailbox(func(id msg.NodeID) bool { return id < 3 })
	now := time.Now()
	for i := 0; i < 1000; i++ {
		box.sent(&msg.Envelope{From: 0, To: 100}, now)
	}
	if n := box.size(); n != 0 {
		t.Fatalf("bridge-crossing envelopes recorded: %d pending", n)
	}
	e := &msg.Envelope{From: 0, To: 1}
	box.sent(e, now)
	if at, ok := box.delivered(e); !ok || !at.Equal(now) {
		t.Fatal("in-router envelope not matched")
	}
	if _, ok := box.delivered(e); ok || box.size() != 0 {
		t.Fatal("matched envelope not forgotten")
	}
}

// pinger bounces envelopes with its peer until it has sent rounds of them.
type pinger struct {
	peer   msg.NodeID
	start  bool
	rounds int
	sent   int
}

func (p *pinger) OnStart(env node.Env) {
	if p.start {
		p.send(env)
	}
}

func (p *pinger) send(env node.Env) {
	if p.sent == p.rounds {
		return
	}
	p.sent++
	env.Send(&msg.Envelope{From: env.Self(), To: p.peer, Kind: msg.KindCommit, Body: []byte("ping")})
}

func (p *pinger) OnEnvelope(env node.Env, _ *msg.Envelope) { p.send(env) }
func (p *pinger) OnTimer(node.Env, node.TimerKey)          {}

// Traced probes on a real router: every in-router delivery is matched, so
// the mailbox drains to empty, and the control hook runs on the node's own
// goroutine (the pinger's counter is read there, race-free).
func TestNodeProbeOnRouter(t *testing.T) {
	const rounds = 500
	r := realnet.NewRouter()
	r.SetLogOutput(io.Discard)
	defer r.Close()
	box := newMailbox(func(id msg.NodeID) bool { return id < 2 })
	ctl := &control{}
	a, b := &pinger{peer: 1, start: true, rounds: rounds}, &pinger{peer: 0, rounds: rounds}
	var sentA int
	pa := newNodeProbe(a, ctl, func() { sentA = a.sent })
	pb := newNodeProbe(b, ctl, nil)
	pa.trace(box)
	pb.trace(box)
	r.Attach(0, pa)
	r.Attach(1, pb)

	handled := func(p *nodeProbe) int64 { return p.c.kindN[msg.KindCommit].Load() }
	if !waitUntil(5*time.Second, func() bool { return handled(pa) == rounds && handled(pb) == rounds }) {
		t.Fatalf("nodes handled %d and %d envelopes, want %d each", handled(pa), handled(pb), rounds)
	}
	// Both nodes are idle now: the control request is served on node 0's
	// next callback, which an envelope injected past the probes provides.
	g := ctl.gen.Add(1)
	r.Send(&msg.Envelope{From: 1, To: 0, Kind: msg.KindCommit})
	if !waitUntil(5*time.Second, func() bool { return pa.done.Load() == g }) {
		t.Fatal("control request not served")
	}
	if sentA != rounds {
		t.Fatalf("node 0 sent %d, want %d", sentA, rounds)
	}
	r.Close()
	if n := box.size(); n != 0 {
		t.Fatalf("%d in-router envelopes left unmatched", n)
	}
	if got := pa.wait.n + pb.wait.n; got != 2*rounds {
		t.Fatalf("mailbox waits recorded = %d, want %d", got, 2*rounds)
	}
	var self countersSnap
	self.add(pa.c)
	if pa.c.sendN.Load() != rounds || self.selfNs() <= 0 {
		t.Fatalf("node 0: %d sends, self time %d ns", pa.c.sendN.Load(), self.selfNs())
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.record(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Microsecond}, {0.99, 990 * time.Microsecond}} {
		got := h.quantile(c.q)
		if diff := float64(got-c.want) / float64(c.want); diff < -0.01 || diff > 0.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", c.q, got, c.want)
		}
	}
	for b := 0; b < len(h.buckets); b++ {
		if histBucket(histLower(b)) != b {
			t.Fatalf("bucket %d: lower bound %d maps to bucket %d", b, histLower(b), histBucket(histLower(b)))
		}
	}
}

// A short traced and untraced deployment of the real cluster, checks
// included; under -race this is the benchmark's race check.
func TestDeploymentsPassTheirChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real deployment")
	}
	w, _ := workloadByName("kv-write")
	w.warmupOps = 500
	for _, traced := range []bool{false, true} {
		d := runDeployment(w, 42, 2, 200*time.Millisecond, traced)
		if len(d.errs) > 0 || d.failed > 0 || len(d.windows) != 2 {
			t.Fatalf("traced=%v: errs=%v failed=%d windows=%d", traced, d.errs, d.failed, len(d.windows))
		}
		m := d.windows[1]
		if m["throughput_ops_s"] <= 0 || m["latency_p99_ms"] < m["latency_p50_ms"] {
			t.Fatalf("traced=%v: implausible window metrics %v", traced, m)
		}
		if got := m["realnet.msgs_per_op"] > 0; got != traced {
			t.Fatalf("traced=%v: per-layer metrics present = %v", traced, got)
		}
	}
}
