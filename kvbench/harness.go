package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"time"

	root "github.com/troxy-bft/troxy"
	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/hybster"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/realnet"
	itroxy "github.com/troxy-bft/troxy/internal/troxy"
)

// Deployment, identical for every workload.
const (
	clients        = 64
	machineID      = msg.NodeID(100)
	batchSize      = 64
	batchDelay     = time.Millisecond
	pipelineDepth  = 4
	checkpointIntv = 32
	clientTimeout  = 5 * time.Second
	drainTimeout   = 10 * time.Second
	settleTimeout  = 10 * time.Second
)

// spec is one workload.
type spec struct {
	name      string
	why       string
	readRatio float64
	valueSize int
	keys      int
	ballast   int // ballast keys per replica, ballastSize bytes each
	warmupOps uint64
	// minFastReads is the share of measured reads the fast-read path must
	// serve (0: not checked).
	minFastReads float64
	// checkpoints requires every replica to complete a checkpoint inside
	// every measured window.
	checkpoints bool
}

const ballastSize = 1024

var workloads = []spec{
	{
		name:      "kv-write",
		why:       "100% PUT of 128 B values over 1024 keys: all work is on the ordering path; the fast-read cache is idle",
		valueSize: 128, keys: 1024, warmupOps: 4000,
	},
	{
		name:      "kv-read-mostly",
		why:       "95% GET / 5% PUT of 1 KiB values over 1024 keys: reads served by the Troxy fast-read caches, 1 KiB replies",
		readRatio: 0.95, valueSize: 1024, keys: 1024, warmupOps: 40000,
		minFastReads: 0.90,
	},
	{
		name:      "kv-large-state",
		why:       "kv-write traffic over a 32000 x 1 KiB ballast per replica: O(state) checkpoint snapshots dominate",
		valueSize: 128, keys: 1024, ballast: 32000, warmupOps: 2000,
		checkpoints: true,
	},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// observer receives every completed operation on the client machine's
// goroutine, checks its result, and records its latency by class. Only
// completed is read while the machine runs; the histograms are copied on
// the machine's goroutine, and the rest is read after its router closed.
type observer struct {
	gen       *opGen
	completed atomic.Uint64

	bad           int
	firstBad      error
	reads, writes hist
}

func (o *observer) observe(_, _ uint64, op []byte, read bool, invoked, responded time.Duration, result []byte) {
	if err := o.gen.check(op, read, result); err != nil {
		if o.bad == 0 {
			o.firstBad = err
		}
		o.bad++
	}
	if read {
		o.reads.record(responded - invoked)
	} else {
		o.writes.record(responded - invoked)
	}
	o.completed.Add(1)
}

// replicaSnap is a replica's protocol and Troxy counters, and in traced
// deployments its mailbox-wait histogram, copied on the replica's goroutine.
type replicaSnap struct {
	core  hybster.Metrics
	troxy itroxy.Stats
	wait  hist
}

// cluster is one assembled deployment: replicas in router B, the client
// machine in router A, one TCP bridge each way.
type cluster struct {
	w      spec
	traced bool
	cl     *root.Cluster
	gen    *opGen
	bal    ballast
	obs    *observer

	routerA, routerB *realnet.Router
	bridgeA, bridgeB *realnet.Bridge

	ctl      control // replica probes
	machCtl  control // client machine probe
	stop     atomic.Bool
	replicas []*nodeProbe
	machine  *nodeProbe
	apps     []*appProbe

	// Written by the probes' serve hooks, read once the hook has run.
	snaps      []replicaSnap
	clientLats [2]hist // reads, writes
}

// assemble builds the deployment, preloads every replica and starts the
// clients. Traced deployments attach the per-layer probes.
func assemble(w spec, seed int64, traced bool) (*cluster, error) {
	c := &cluster{w: w, traced: traced}
	c.gen = newOpGen(seed, w.keys, w.readRatio, w.valueSize)
	c.bal = newBallast(seed, w.ballast, ballastSize)
	c.obs = &observer{gen: c.gen}
	factory := func() app.Application {
		st := app.NewStore()
		if !traced {
			return st
		}
		a := &appProbe{inner: st}
		c.apps = append(c.apps, a)
		return a
	}
	cl, err := root.NewCluster(root.ClusterConfig{
		Mode:               root.ETroxy,
		App:                factory,
		Classify:           app.NewStore().IsRead,
		FastReads:          true,
		Seed:               seed,
		BatchSize:          batchSize,
		BatchDelay:         batchDelay,
		PipelineDepth:      pipelineDepth,
		CheckpointInterval: checkpointIntv,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.cl = cl
	n := cl.Config.N

	// Preload every replica's application directly, before the network
	// exists: the traffic keyspace, then the ballast.
	pre := c.gen.preload()
	for i := 0; i < n; i++ {
		a := cl.App(i)
		for _, op := range pre {
			a.Execute(op)
		}
		for k := 0; k < c.bal.keys; k++ {
			a.Execute(c.bal.put(k))
		}
	}

	c.routerA = realnet.NewRouter()
	c.routerA.SetLogOutput(io.Discard)
	c.routerB = realnet.NewRouter()
	c.routerB.SetLogOutput(io.Discard)

	// Bridge B binds first; bridge A's port is reserved and rebound so both
	// address books are complete before either bridge exists.
	addrA, err := reserveLoopbackAddr()
	if err != nil {
		c.close()
		return nil, err
	}
	c.bridgeB = realnet.NewBridge(c.routerB, map[msg.NodeID]string{machineID: addrA})
	if err := c.bridgeB.Listen("127.0.0.1:0"); err != nil {
		c.close()
		return nil, err
	}
	toB := make(map[msg.NodeID]string)
	for _, id := range cl.ReplicaIDs() {
		toB[id] = c.bridgeB.Addr().String()
	}
	c.bridgeA = realnet.NewBridge(c.routerA, toB)
	if err := c.bridgeA.Listen(addrA); err != nil {
		c.close()
		return nil, err
	}

	box := newMailbox(func(id msg.NodeID) bool { return id >= 0 && int(id) < n })
	c.snaps = make([]replicaSnap, n)
	for i, r := range cl.Replicas {
		p := newNodeProbe(r, &c.ctl, nil)
		p.serve = func() {
			s := &c.snaps[i]
			s.core = r.Core().Metrics()
			s.troxy = cl.TroxyStats(i)
			if p.wait != nil {
				s.wait = *p.wait
			}
		}
		if traced {
			p.trace(box)
			c.apps[i].owner = p
		}
		c.replicas = append(c.replicas, p)
		c.routerB.Attach(msg.NodeID(i), p)
	}

	lc := legacyclient.New(legacyclient.Config{
		Machine:       machineID,
		Clients:       clients,
		FirstClientID: 1000,
		Replicas:      cl.ReplicaIDs(),
		ServerPub:     cl.ServerPub,
		Gen:           c.gen,
		Timeout:       clientTimeout,
		Observe:       c.obs.observe,
	})
	c.machine = newNodeProbe(lc, &c.machCtl, func() {
		c.clientLats = [2]hist{c.obs.reads, c.obs.writes}
		if c.stop.Load() {
			lc.Stop()
		}
	})
	if traced {
		c.machine.trace(nil)
	}
	c.routerA.Attach(machineID, c.machine)
	return c, nil
}

// reserveLoopbackAddr grabs a loopback address a listener can bind shortly
// afterwards.
func reserveLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserve loopback address: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// close tears the deployment down, client side first: closing bridge A
// severs the TCP link, so replica-side goroutines stop receiving before
// router B joins them. Every goroutine has exited when it returns.
func (c *cluster) close() {
	if c.bridgeA != nil {
		c.bridgeA.Close()
	}
	if c.routerA != nil {
		c.routerA.Close()
	}
	if c.bridgeB != nil {
		c.bridgeB.Close()
	}
	if c.routerB != nil {
		c.routerB.Close()
	}
}

// waitUntil polls cond every millisecond until it holds or d elapses.
func waitUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// syncProbes has every probe in probes run its serve hook on its own goroutine
// and waits for all of them. Replicas run a tick timer, so each serves
// within one tick even when idle; the client machine serves at once while
// its clients are running.
func syncProbes(ctl *control, probes ...*nodeProbe) error {
	g := ctl.gen.Add(1)
	ok := waitUntil(2*time.Second, func() bool {
		for _, p := range probes {
			if p.done.Load() != g {
				return false
			}
		}
		return true
	})
	if !ok {
		return fmt.Errorf("probes did not serve a counter snapshot")
	}
	return nil
}

// boundary is everything read at one edge of a measured window.
type boundary struct {
	at       time.Time
	cpu      time.Duration
	rt       rtSample
	replicas []replicaSnap
	lats     [2]hist // client latencies: reads, writes
	ecalls   map[string]uint64
	copied   uint64
	flushes  realnet.RingStats

	client, servers countersSnap // traced deployments only
}

func (c *cluster) boundary() (*boundary, error) {
	if err := syncProbes(&c.machCtl, c.machine); err != nil {
		return nil, err
	}
	if err := syncProbes(&c.ctl, c.replicas...); err != nil {
		return nil, err
	}
	b := &boundary{replicas: slices.Clone(c.snaps), lats: c.clientLats, ecalls: make(map[string]uint64)}
	for _, e := range c.cl.Enclaves {
		s := e.Stats()
		for name, n := range s.ECalls {
			b.ecalls[name] += n
		}
		b.copied += s.CopiedBytes
	}
	for _, br := range []*realnet.Bridge{c.bridgeA, c.bridgeB} {
		for _, s := range br.FlushStats() {
			b.flushes.Flushes += s.Flushes
			b.flushes.Frames += s.Frames
		}
	}
	if c.traced {
		b.client.add(c.machine.c)
		for i, p := range c.replicas {
			b.servers.add(p.c)
			b.servers.addApp(&c.apps[i].c)
		}
	}
	b.cpu = cpuTime()
	b.rt = readRuntime()
	b.at = time.Now()
	return b, nil
}

// deployment is the outcome of one assembled cluster: its set-up time, the
// metrics of each measured window, and the heap it retains after the drain.
type deployment struct {
	traced    bool
	setup     time.Duration
	heapLive  float64 // MiB
	windows   []map[string]float64
	attempted uint64
	failed    uint64
	errs      []error
}

// runDeployment assembles a cluster, warms it up to a completed-operation
// count, measures back-to-back windows, drains, and checks the outcome.
func runDeployment(w spec, seed int64, windows int, window time.Duration, traced bool) deployment {
	d := deployment{traced: traced}
	fail := func(format string, args ...any) {
		d.errs = append(d.errs, fmt.Errorf(format, args...))
	}

	start := time.Now()
	c, err := assemble(w, seed, traced)
	if err != nil {
		fail("%v", err)
		return d
	}
	defer c.close()
	if !waitUntil(60*time.Second, func() bool { return c.obs.completed.Load() >= w.warmupOps }) {
		fail("warm-up did not complete %d operations", w.warmupOps)
		return d
	}
	d.setup = time.Since(start)

	prev, err := c.boundary()
	if err != nil {
		fail("%v", err)
		return d
	}
	for i := 0; i < windows; i++ {
		time.Sleep(window)
		next, err := c.boundary()
		if err != nil {
			fail("%v", err)
			return d
		}
		d.windows = append(d.windows, c.windowMetrics(prev, next, fail))
		prev = next
	}

	// Stop right after the leader's next checkpoint becomes stable, so the
	// heap below is taken at the same point of the checkpoint cycle in every
	// deployment: the ordering log then holds only the few batches ordered
	// since, not anywhere between none and a whole interval's worth.
	stable := c.snaps[0].core.StableSeq
	if !waitUntil(settleTimeout, func() bool {
		return syncProbes(&c.ctl, c.replicas...) == nil && c.snaps[0].core.StableSeq > stable
	}) {
		fail("no checkpoint became stable after the last window")
	}

	// Drain: stop issuing, let every outstanding operation finish.
	c.stop.Store(true)
	if err := syncProbes(&c.machCtl, c.machine); err != nil {
		fail("%v", err)
	}
	drained := waitUntil(drainTimeout, func() bool {
		return c.obs.completed.Load() == c.gen.attempted.Load()
	})
	d.attempted = c.gen.attempted.Load()
	unanswered := d.attempted - c.obs.completed.Load()
	if !drained {
		fail("%d operations unanswered after the drain", unanswered)
	}

	// The heap the deployment retains: live bytes once the drain has
	// emptied every queue, after two forced collections (the second frees
	// what sync.Pools held through the first).
	runtime.GC()
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	d.heapLive = float64(live[0].Value.Uint64()) / (1 << 20)

	// Let every replica execute the full history before digests compare.
	settled := waitUntil(settleTimeout, func() bool {
		if syncProbes(&c.ctl, c.replicas...) != nil {
			return false
		}
		for _, s := range c.snaps[1:] {
			if s.core.Executed != c.snaps[0].core.Executed {
				return false
			}
		}
		return true
	})
	if !settled {
		fail("replicas did not converge on an executed count")
	}
	c.close()

	// Everything below reads protocol state after the routers closed.
	// A client that timed out fails over: it handshakes with the next
	// replica, so every handshake beyond one per client is a retry.
	var handshakes uint64
	for i := range c.cl.Replicas {
		handshakes += c.cl.TroxyStats(i).Handshakes
	}
	retries := handshakes - min(handshakes, clients)
	d.failed = retries + unanswered
	if c.obs.bad > 0 {
		fail("%d operations returned wrong results; first: %v", c.obs.bad, c.obs.firstBad)
	}
	if retries > 0 || handshakes < clients {
		fail("%d handshakes for %d clients: retries in a fault-free run", handshakes, clients)
	}
	c.checkReplicas(fail)
	return d
}

// checkReplicas verifies the fault-free invariants after the routers closed:
// no view change, no rejected certificate or reply, no transport MAC
// failure, identical state digests, and an intact ballast.
func (c *cluster) checkReplicas(fail func(string, ...any)) {
	var digest0 msg.Digest
	for i, rep := range c.cl.Replicas {
		m := rep.Core().Metrics()
		if m.ViewChanges > 0 || m.RejectedCerts > 0 {
			fail("replica %d: %d view changes, %d rejected certificates", i, m.ViewChanges, m.RejectedCerts)
		}
		if ts := c.cl.TroxyStats(i); ts.BadReplies > 0 || ts.BadQueries > 0 {
			fail("replica %d: %d bad replies, %d bad cache messages", i, ts.BadReplies, ts.BadQueries)
		}
		if n := rep.Stats().BadMACs; n > 0 {
			fail("replica %d: %d envelopes failed authentication", i, n)
		}
		a := c.cl.App(i)
		d := app.StateDigest(a)
		if i == 0 {
			digest0 = d
		} else if d != digest0 {
			fail("replica %d state digest differs from replica 0", i)
		}
		for k := 0; k < c.bal.keys; k++ {
			got := a.Execute([]byte("GET " + c.bal.key(k)))
			if !bytes.Equal(got, append([]byte("VALUE "), c.bal.value(k)...)) {
				fail("replica %d: ballast key %s damaged", i, c.bal.key(k))
				break
			}
		}
	}
}
