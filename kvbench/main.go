// Command kvbench is the repository's wall-clock benchmark. It assembles an
// in-process ETroxy cluster (N=3, F=1) on the real goroutine/TCP runtime,
// drives it from one legacy-client machine of 64 closed-loop clients across
// a loopback TCP bridge, checks every result, and prints its metrics by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Untraced runs (-trace 0) report end-to-end metrics; traced runs (-trace 1)
// alternate untraced and traced deployments and report per-layer metrics,
// including the tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// runTimeout bounds a whole run: a wedged deployment must not outlive it.
const runTimeout = 170 * time.Second

// endToEndUnits and perLayerUnits list every reported metric with its unit.
// Untraced runs print the first set, traced runs the second.
var endToEndUnits = []metricUnit{
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"heap_live_mib", "MiB"},
	{"setup_s", "s"},
}

var perLayerUnits = []metricUnit{
	{"legacyclient.busy_us_per_op", "us"},
	{"replica.busy_us_per_op", "us"},
	{"replica.channel_data_us_per_op", "us"},
	{"replica.forward_us_per_op", "us"},
	{"replica.prepare_us_per_op", "us"},
	{"replica.commit_us_per_op", "us"},
	{"replica.checkpoint_us_per_op", "us"},
	{"replica.ordered_reply_us_per_op", "us"},
	{"replica.cache_query_us_per_op", "us"},
	{"replica.cache_reply_us_per_op", "us"},
	{"replica.timer_us_per_op", "us"},
	{"realnet.msgs_per_op", "count"},
	{"realnet.msg_bytes_per_op", "B"},
	{"realnet.send_us_per_op", "us"},
	{"realnet.mailbox_wait_p50_us", "us"},
	{"realnet.mailbox_wait_p99_us", "us"},
	{"realnet.frames_per_flush", "count"},
	{"enclave.ecalls_per_op", "count"},
	{"enclave.copied_bytes_per_op", "B"},
	{"enclave.handle_client_data_per_op", "count"},
	{"enclave.authenticate_reply_per_op", "count"},
	{"enclave.handle_reply_per_op", "count"},
	{"enclave.handle_cache_query_per_op", "count"},
	{"enclave.handle_cache_reply_per_op", "count"},
	{"tcounter.certify_per_op", "count"},
	{"tcounter.verify_per_op", "count"},
	{"hybster.ops_per_batch", "count"},
	{"hybster.window_stalls_per_s", "1/s"},
	{"hybster.checkpoints_per_s", "1/s"},
	{"troxy.fast_read_share", "share"},
	{"troxy.fast_read_fallback_share", "share"},
	{"troxy.cache_miss_share", "share"},
	{"app.execute_us_per_op", "us"},
	{"app.snapshot_ms_per_checkpoint", "ms"},
	{"charge.mac_per_op", "count"},
	{"charge.mac_bytes_per_op", "B"},
	{"charge.aead_bytes_per_op", "B"},
	{"charge.hash_bytes_per_op", "B"},
	{"charge.transition_per_op", "count"},
	{"runtime.gc_cpu_share", "share"},
	{"trace.throughput_overhead_share", "share"},
	{"trace.unattributed_us_per_op", "us"},
	{"trace.unattributed_cpu_share", "share"},
}

type metricUnit struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: kv-write, kv-read-mostly or kv-large-state")
	seed := flag.Int64("seed", 1, "input seed (operations, preload and ballast contents)")
	seconds := flag.Int("seconds", 20, "measured seconds, split across the run's deployments")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from traced deployments")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "kvbench: need -workload one of kv-write, kv-read-mostly, kv-large-state, -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}
	watchdog := time.AfterFunc(runTimeout, func() {
		fmt.Fprintf(os.Stderr, "kvbench: run exceeded %v\n", runTimeout)
		os.Exit(1)
	})
	defer watchdog.Stop()

	res := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// A run assembles several deployments one after another. Each is set up
// from scratch (setup_s is the median of their set-up times) and measures
// back-to-back windows of about windowLen; the run's --seconds are split
// evenly across all windows. Every other metric is the median across all
// windows of the run, heap_live_mib the median across deployments. A traced
// run alternates untraced and traced deployments so it can state its own
// overhead.
const (
	untracedDeployments = 3
	tracedDeployments   = 4
	windowLen           = 2 * time.Second
)

func run(w spec, seed int64, total time.Duration, traced bool) result {
	fmt.Printf("kvbench workload=%s seed=%d seconds=%v trace=%v\n", w.name, seed, total.Seconds(), traced)
	fmt.Printf("why: %s\n", w.why)
	steal0, jiffies0 := stealJiffies()
	fmt.Printf("diag calibration_ms=%.1f (fixed SHA-256/map loop; not used in any metric)\n", ms(calibrate()))

	deployments := untracedDeployments
	if traced {
		deployments = tracedDeployments
	}
	windows := max(1, int((total+windowLen/2)/(time.Duration(deployments)*windowLen)))
	window := total / time.Duration(deployments*windows)
	res := result{Correct: true, Metrics: make(map[string]metricValue)}
	byMode := map[bool][]deployment{}
	for i := 0; i < deployments; i++ {
		tr := traced && i%2 == 1
		d := runDeployment(w, seed*1000+int64(i), windows, window, tr)
		res.Attempted += d.attempted
		res.Failed += d.failed
		printDeployment(i, deployments, d)
		for _, err := range d.errs {
			fmt.Printf("FAIL deployment %d: %v\n", i+1, err)
			res.Correct = false
		}
		byMode[tr] = append(byMode[tr], d)
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	steal1, jiffies1 := stealJiffies()
	if jiffies1 > jiffies0 {
		fmt.Printf("diag steal_share=%.4f (machine-wide, /proc/stat; not used in any metric)\n",
			float64(steal1-steal0)/float64(jiffies1-jiffies0))
	}

	units := endToEndUnits
	med := medians(byMode[false])
	if traced {
		units = perLayerUnits
		untracedThr := med["throughput_ops_s"]
		med = medians(byMode[true])
		med["trace.throughput_overhead_share"] = 1 - med["throughput_ops_s"]/untracedThr
	}
	// The read median is printed for reading, not gated: on the write-only
	// workloads it does not exist, and on kv-read-mostly latency_p50_ms
	// already falls inside the read distribution.
	if v, ok := med["read_p50_ms"]; ok {
		fmt.Printf("metric read_p50_ms = %.4f ms (not in the JSON result)\n", v)
	}
	if v, ok := med["fast_read_share"]; ok {
		fmt.Printf("check fast_read_share = %.4f (minimum %.2f in every window)\n", v, w.minFastReads)
	}
	for _, mu := range units {
		v, ok := med[mu.name]
		if !ok {
			res.Correct = false
			fmt.Printf("FAIL metric %s missing\n", mu.name)
			continue
		}
		fmt.Printf("metric %s = %.6g %s\n", mu.name, v, mu.unit)
		res.Metrics[mu.name] = metricValue{Value: v, Unit: mu.unit}
	}
	return res
}

// medians takes each window metric's median across the deployments'
// windows, and the medians of set-up time and live heap across deployments.
func medians(ds []deployment) map[string]float64 {
	vals := make(map[string][]float64)
	for _, d := range ds {
		for _, m := range d.windows {
			for k, v := range m {
				vals[k] = append(vals[k], v)
			}
		}
		vals["setup_s"] = append(vals["setup_s"], d.setup.Seconds())
		vals["heap_live_mib"] = append(vals["heap_live_mib"], d.heapLive)
	}
	out := make(map[string]float64, len(vals))
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}

func printDeployment(i, n int, d deployment) {
	mode := "untraced"
	if d.traced {
		mode = "traced"
	}
	fmt.Printf("deployment %d/%d %s setup=%.3fs heap_live=%.2fMiB windows=%d attempted=%d failed=%d\n",
		i+1, n, mode, d.setup.Seconds(), d.heapLive, len(d.windows), d.attempted, d.failed)
	for j, m := range d.windows {
		fmt.Printf("  window %d: throughput=%.0f/s p50=%.3fms p99=%.3fms cpu=%.1fus/op allocs=%.1f/op\n",
			j+1, m["throughput_ops_s"], m["latency_p50_ms"], m["latency_p99_ms"], m["cpu_us_per_op"], m["allocs_per_op"])
	}
}
