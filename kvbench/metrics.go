package main

import (
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/tcounter"
	itroxy "github.com/troxy-bft/troxy/internal/troxy"
)

// countersSnap is a plain copy of nodeCounters (summed over nodes) plus
// the replicas' appCounters.
type countersSnap struct {
	kindNs                [256]int64
	timerNs               int64
	sendN, sendNs, sendB  int64
	chargeN, chargeB      [16]int64
	execNs                int64
	snapshots, snapshotNs int64
}

func (s *countersSnap) add(c *nodeCounters) {
	for i := range c.kindNs {
		s.kindNs[i] += c.kindNs[i].Load()
	}
	s.timerNs += c.timerNs.Load()
	s.sendN += c.sendN.Load()
	s.sendNs += c.sendNs.Load()
	s.sendB += c.sendBytes.Load()
	for i := range c.chargeN {
		s.chargeN[i] += c.chargeN[i].Load()
		s.chargeB[i] += c.chargeBytes[i].Load()
	}
}

func (s *countersSnap) addApp(c *appCounters) {
	s.execNs += c.execNs.Load()
	s.snapshots += c.snapshots.Load()
	s.snapshotNs += c.snapshotNs.Load()
}

func (s *countersSnap) selfNs() int64 {
	total := s.timerNs
	for _, ns := range s.kindNs {
		total += ns
	}
	return total
}

func (s countersSnap) sub(o *countersSnap) countersSnap {
	for i := range s.kindNs {
		s.kindNs[i] -= o.kindNs[i]
	}
	s.timerNs -= o.timerNs
	s.sendN -= o.sendN
	s.sendNs -= o.sendNs
	s.sendB -= o.sendB
	for i := range s.chargeN {
		s.chargeN[i] -= o.chargeN[i]
		s.chargeB[i] -= o.chargeB[i]
	}
	s.execNs -= o.execNs
	s.snapshots -= o.snapshots
	s.snapshotNs -= o.snapshotNs
	return s
}

// windowMetrics derives one window's metrics from its two boundaries and
// runs the window's checks: the fast-read share on kv-read-mostly and a
// completed checkpoint per replica on kv-large-state.
func (c *cluster) windowMetrics(b0, b1 *boundary, fail func(string, ...any)) map[string]float64 {
	reads, writes := b1.lats[0].sub(&b0.lats[0]), b1.lats[1].sub(&b0.lats[1])
	all := reads
	all.merge(&writes)
	m := make(map[string]float64)
	if all.n == 0 {
		fail("no operation completed in a window")
		return m
	}
	ops := float64(all.n)
	secs := b1.at.Sub(b0.at).Seconds()
	m["throughput_ops_s"] = ops / secs
	m["latency_p50_ms"] = ms(all.quantile(0.50))
	m["latency_p99_ms"] = ms(all.quantile(0.99))
	m["write_p50_ms"] = ms(writes.quantile(0.50))
	if reads.n > 0 {
		m["read_p50_ms"] = ms(reads.quantile(0.50))
	}
	m["cpu_us_per_op"] = float64(b1.cpu-b0.cpu) / 1e3 / ops
	m["allocs_per_op"] = float64(b1.rt.allocs-b0.rt.allocs) / ops
	m["alloc_bytes_per_op"] = float64(b1.rt.allocBytes-b0.rt.allocBytes) / ops

	var fastOK, fell, misses, troxyReads uint64
	for i := range b1.replicas {
		t1, t0 := &b1.replicas[i].troxy, &b0.replicas[i].troxy
		fastOK += t1.FastReadOK - t0.FastReadOK
		fell += t1.FastReadFell - t0.FastReadFell
		misses += t1.CacheMisses - t0.CacheMisses
		troxyReads += t1.Reads - t0.Reads
		if c.w.checkpoints && b1.replicas[i].core.StableSeq <= b0.replicas[i].core.StableSeq {
			fail("replica %d completed no checkpoint in a window", i)
		}
	}
	share := func(n uint64) float64 { return float64(n) / float64(max(troxyReads, 1)) }
	if c.w.minFastReads > 0 {
		m["fast_read_share"] = share(fastOK)
		if share(fastOK) < c.w.minFastReads {
			fail("fast path served %.3f of a window's reads, below %.2f", share(fastOK), c.w.minFastReads)
		}
	}
	if !c.traced {
		return m
	}

	// Per-layer metrics of a traced window.
	usPerOp := func(ns int64) float64 { return float64(ns) / 1e3 / ops }
	cl := b1.client.sub(&b0.client)
	sv := b1.servers.sub(&b0.servers)
	m["legacyclient.busy_us_per_op"] = usPerOp(cl.selfNs())
	m["replica.busy_us_per_op"] = usPerOp(sv.selfNs())
	m["replica.channel_data_us_per_op"] = usPerOp(sv.kindNs[msg.KindChannelData])
	m["replica.forward_us_per_op"] = usPerOp(sv.kindNs[msg.KindForward])
	m["replica.prepare_us_per_op"] = usPerOp(sv.kindNs[msg.KindPrepare])
	m["replica.commit_us_per_op"] = usPerOp(sv.kindNs[msg.KindCommit])
	m["replica.checkpoint_us_per_op"] = usPerOp(sv.kindNs[msg.KindCheckpoint])
	m["replica.ordered_reply_us_per_op"] = usPerOp(sv.kindNs[msg.KindOrderedReply])
	m["replica.cache_query_us_per_op"] = usPerOp(sv.kindNs[msg.KindCacheQuery])
	m["replica.cache_reply_us_per_op"] = usPerOp(sv.kindNs[msg.KindCacheReply])
	m["replica.timer_us_per_op"] = usPerOp(sv.timerNs)

	m["realnet.msgs_per_op"] = float64(cl.sendN+sv.sendN) / ops
	m["realnet.msg_bytes_per_op"] = float64(cl.sendB+sv.sendB) / ops
	m["realnet.send_us_per_op"] = usPerOp(cl.sendNs + sv.sendNs)
	var wait hist
	for i := range b1.replicas {
		d := b1.replicas[i].wait.sub(&b0.replicas[i].wait)
		wait.merge(&d)
	}
	m["realnet.mailbox_wait_p50_us"] = float64(wait.quantile(0.50)) / 1e3
	m["realnet.mailbox_wait_p99_us"] = float64(wait.quantile(0.99)) / 1e3
	flushes := b1.flushes.Flushes - b0.flushes.Flushes
	m["realnet.frames_per_flush"] = float64(b1.flushes.Frames-b0.flushes.Frames) / float64(max(flushes, 1))

	// The harness's own counter snapshots cross the enclave boundary once
	// per replica per boundary; they are left out of the totals.
	ecall := func(name string) float64 { return float64(b1.ecalls[name] - b0.ecalls[name]) }
	var ecalls float64
	for name := range b1.ecalls {
		if name != itroxy.ECallStats {
			ecalls += ecall(name)
		}
	}
	m["enclave.ecalls_per_op"] = ecalls / ops
	m["enclave.copied_bytes_per_op"] = float64(b1.copied-b0.copied) / ops
	m["enclave.handle_client_data_per_op"] = ecall(itroxy.ECallClientData) / ops
	m["enclave.authenticate_reply_per_op"] = ecall(itroxy.ECallAuthReply) / ops
	m["enclave.handle_reply_per_op"] = ecall(itroxy.ECallHandleReply) / ops
	m["enclave.handle_cache_query_per_op"] = ecall(itroxy.ECallCacheQuery) / ops
	m["enclave.handle_cache_reply_per_op"] = ecall(itroxy.ECallCacheReply) / ops
	m["tcounter.certify_per_op"] = ecall(tcounter.ECallCertify) / ops
	m["tcounter.verify_per_op"] = ecall(tcounter.ECallVerify) / ops

	var proposed, batches, stalls uint64
	for i := range b1.replicas {
		s1, s0 := &b1.replicas[i].core, &b0.replicas[i].core
		proposed += s1.Proposed - s0.Proposed
		batches += s1.Batches - s0.Batches
		stalls += s1.WindowStalls - s0.WindowStalls
	}
	m["hybster.ops_per_batch"] = float64(proposed) / float64(max(batches, 1))
	m["hybster.window_stalls_per_s"] = float64(stalls) / secs
	m["hybster.checkpoints_per_s"] = float64(sv.snapshots) / secs
	m["troxy.fast_read_share"] = share(fastOK)
	m["troxy.fast_read_fallback_share"] = share(fell)
	m["troxy.cache_miss_share"] = share(misses)

	m["app.execute_us_per_op"] = usPerOp(sv.execNs)
	m["app.snapshot_ms_per_checkpoint"] = float64(sv.snapshotNs) / 1e6 / float64(max(sv.snapshots, 1))

	charge := func(k node.ChargeKind) (n, bytes float64) {
		return float64(cl.chargeN[k] + sv.chargeN[k]), float64(cl.chargeB[k] + sv.chargeB[k])
	}
	macN, macB := charge(node.ChargeMAC)
	_, aeadB := charge(node.ChargeAEAD)
	_, hashB := charge(node.ChargeHash)
	transN, _ := charge(node.ChargeTransition)
	m["charge.mac_per_op"] = macN / ops
	m["charge.mac_bytes_per_op"] = macB / ops
	m["charge.aead_bytes_per_op"] = aeadB / ops
	m["charge.hash_bytes_per_op"] = hashB / ops
	m["charge.transition_per_op"] = transN / ops

	m["runtime.gc_cpu_share"] = gcShare(b0.rt, b1.rt)

	// Handler callbacks (self time plus the Send and application time inside
	// them) against the process's CPU time: the rest is bridge I/O, router
	// mailboxes, timers, the garbage collector and the scheduler.
	attributed := cl.selfNs() + sv.selfNs() + cl.sendNs + sv.sendNs + sv.execNs + sv.snapshotNs
	cpu := int64(b1.cpu - b0.cpu)
	m["trace.unattributed_us_per_op"] = usPerOp(cpu - attributed)
	m["trace.unattributed_cpu_share"] = 1 - float64(attributed)/float64(max(cpu, 1))
	return m
}
