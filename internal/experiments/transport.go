package experiments

import (
	"fmt"
	"io"
	"net"
	"time"

	root "github.com/troxy-bft/troxy"
	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/realnet"
	"github.com/troxy-bft/troxy/internal/workload"
)

// transportCells is the batch×depth sub-grid the transport is measured on.
// (1,1) is the unamortized serialized pipeline, (64,1) isolates batching,
// (64,4) is the pipelined configuration the coalescing gate below applies to.
var transportCells = []struct{ batch, depth int }{
	{1, 1},
	{64, 1},
	{64, 4},
}

// transportClients is the closed-loop population (two client machines). It
// must comfortably exceed the largest batch size so the leader can actually
// fill 64-request batches from in-flight load.
const transportClients = 64

// transportMinFramesPerFlush is the coalescing floor at batch 64 / depth 4.
// The ring measures ~22–27 frames per vectored write there, and a drainer
// that flushed frame by frame would read 1, so 8 leaves ~3x margin below the
// measured value and 8x above per-frame flushing.
const transportMinFramesPerFlush = 8

// Transport measures the realnet transport on the real goroutine/TCP
// runtime — the one experiment in this package that runs on wall-clock time
// instead of the simulator. Two processes are emulated by two routers joined
// by a TCP bridge: all replicas live in one router, all client machines in
// the other, so every request and reply crosses the bridged link through
// pooled zero-allocation encode, per-peer send rings, vectored writes and
// chunked batch ingress.
//
// Two mechanism invariants are hard, not tuning observations: the run
// panics if any cell drops a frame (the rings must keep up, not shed load),
// or if the pipelined cell coalesces fewer than transportMinFramesPerFlush
// frames per vectored write. Latency is not gated here; kvbench's kv-write
// workload runs the same deployment against a recorded baseline.
func Transport(opt Options) []*Table {
	warmup, measure := opt.measureDurations(false)

	t := &Table{
		ID:      "transport",
		Title:   "realnet ring transport: closed loop over a TCP bridge",
		Columns: []string{"batch", "depth", "kops/s", "mean-lat(ms)", "p50(ms)", "p90(ms)", "frames/flush", "drops"},
		Notes: []string{
			fmt.Sprintf("%d closed-loop clients (128 B writes) on two machines; replicas and clients in separate routers joined by TCP", 2*transportClients),
			"frames/flush aggregates both bridge directions (requests and replies)",
			fmt.Sprintf("gate: zero drops in every cell; frames/flush >= %d at batch=64 depth=4", transportMinFramesPerFlush),
		},
	}

	for _, cell := range transportCells {
		opt.progress("transport: batch=%d depth=%d ...", cell.batch, cell.depth)
		res := runTransportCell(opt, cell.batch, cell.depth, warmup, measure)
		perFlush := res.FramesPerFlush()
		if res.Drops != 0 {
			panic(fmt.Sprintf("transport: batch=%d depth=%d dropped %d frames",
				cell.batch, cell.depth, res.Drops))
		}
		if cell.batch == 64 && cell.depth == 4 && perFlush < transportMinFramesPerFlush {
			panic(fmt.Sprintf("transport: coalescing regression at batch=64 depth=4 — %.1f frames/flush, want >= %d",
				perFlush, transportMinFramesPerFlush))
		}
		t.AddRow(fmt.Sprintf("%d", cell.batch), fmt.Sprintf("%d", cell.depth),
			kops(res.Result.OpsPerSec), ms(res.Result.Mean),
			ms(res.Result.P50), ms(res.Result.P90),
			fmt.Sprintf("%.1f", perFlush), fmt.Sprintf("%d", res.Drops))
	}
	return []*Table{t}
}

// reserveLoopbackAddr grabs a loopback address that a listener can bind
// shortly afterwards.
func reserveLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// transportResult couples the workload measurement with the bridge's ring
// counters (both directions summed).
type transportResult struct {
	realnet.RingStats
	Result workload.Result
	Drops  uint64
}

// runTransportCell runs one wall-clock closed-loop measurement: a full
// cluster in router B, client machines in router A, and the TCP bridge
// between them.
func runTransportCell(opt Options, batch, depth int, warmup, measure time.Duration) transportResult {
	cl, err := root.NewCluster(root.ClusterConfig{
		Mode:          root.ETroxy,
		App:           app.NewStoreFactory(),
		Classify:      app.NewStore().IsRead,
		Seed:          opt.seed(),
		BatchSize:     batch,
		BatchDelay:    time.Millisecond,
		PipelineDepth: depth,
	})
	if err != nil {
		panic(fmt.Sprintf("transport: cluster: %v", err))
	}

	// Router B hosts the replicas; its bridge address is reserved up front so
	// router A's address book can point at it before it listens.
	routerA := realnet.NewRouter()
	routerA.SetLogOutput(io.Discard)
	defer routerA.Close()
	routerB := realnet.NewRouter()
	routerB.SetLogOutput(io.Discard)
	defer routerB.Close()

	// NewBridge copies its address book, so both listen addresses must be
	// known before either bridge exists: bridge B binds first and bridge A's
	// port is reserved and rebound (the same reserve/rebind pattern the
	// realnet chaos harness uses for its late listener).
	addrA, err := reserveLoopbackAddr()
	if err != nil {
		panic(fmt.Sprintf("transport: reserve addr: %v", err))
	}
	toA := map[msg.NodeID]string{100: addrA, 101: addrA}
	bridgeB := realnet.NewBridge(routerB, toA)
	defer bridgeB.Close()
	if err := bridgeB.Listen("127.0.0.1:0"); err != nil {
		panic(fmt.Sprintf("transport: bridge B listen: %v", err))
	}
	addrB := bridgeB.Addr().String()

	toB := make(map[msg.NodeID]string)
	for _, id := range cl.ReplicaIDs() {
		toB[id] = addrB
	}
	bridgeA := realnet.NewBridge(routerA, toB)
	defer bridgeA.Close()
	if err := bridgeA.Listen(addrA); err != nil {
		panic(fmt.Sprintf("transport: bridge A listen: %v", err))
	}

	for i, r := range cl.Replicas {
		routerB.Attach(msg.NodeID(i), r)
	}

	rec := workload.NewRecorder()
	for i := 0; i < 2; i++ {
		lc := legacyclient.New(legacyclient.Config{
			Machine:       msg.NodeID(100 + i),
			Clients:       transportClients,
			FirstClientID: uint64(1000 * (i + 1)),
			Replicas:      cl.ReplicaIDs(),
			ServerPub:     cl.ServerPub,
			Gen:           workload.KVGen{Keys: 16, ReadRatio: 0, ValueSize: 128},
			Rec:           rec,
			Timeout:       5 * time.Second,
		})
		routerA.Attach(msg.NodeID(100+i), lc)
	}

	start := time.Now()
	time.Sleep(warmup)
	rec.Begin(time.Since(start))
	time.Sleep(measure)
	rec.End(time.Since(start))
	res := rec.Snapshot(time.Since(start))
	if res.Count == 0 {
		panic(fmt.Sprintf("transport: batch=%d depth=%d measured zero operations",
			batch, depth))
	}

	out := transportResult{Result: res}
	for _, stats := range []map[string]realnet.RingStats{bridgeA.FlushStats(), bridgeB.FlushStats()} {
		for _, s := range stats {
			out.Flushes += s.Flushes
			out.Frames += s.Frames
		}
	}
	for _, drops := range []map[string]uint64{bridgeA.Drops(), bridgeB.Drops()} {
		for _, n := range drops {
			out.Drops += n
		}
	}

	// Tear the client side down first: closing bridge A severs the TCP link,
	// so replica-side goroutines stop receiving before router B joins them.
	bridgeA.Close()
	routerA.Close()
	bridgeB.Close()
	routerB.Close()
	return out
}
