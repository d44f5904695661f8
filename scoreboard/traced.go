package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"honestplayer/internal/feedback"
	"honestplayer/internal/wire"
)

// allMetricz fetches /metricz from every node.
func (b *bench) allMetricz(ctx context.Context) ([]metrics, error) {
	out := make([]metrics, len(b.nodes))
	for i, n := range b.nodes {
		m, err := n.metricz(ctx)
		if err != nil {
			return nil, fmt.Errorf("node %s: %w", n.id, err)
		}
		out[i] = m
	}
	return out, nil
}

// sumNum sums a numeric /metricz field over nodes; ok is false when no
// node reports it.
func sumNum(ms []metrics, path string) (float64, bool) {
	total, any := 0.0, false
	for _, m := range ms {
		if v, ok := m.num(path); ok {
			total, any = total+v, true
		}
	}
	return total, any
}

// delta is the change of a summed counter across a step.
func delta(before, after []metrics, path string) (float64, bool) {
	a, ok1 := sumNum(after, path)
	b, ok2 := sumNum(before, path)
	return a - b, ok1 && ok2
}

// meanDelta is the mean of a per-type latency over the requests of a
// step, from the cumulative count and mean before and after it.
func meanDelta(before, after []metrics, typ string) (mean, count float64, ok bool) {
	var sum float64
	for i := range after {
		na, ok1 := after[i].num("per_type/" + typ + "/requests")
		ma, ok2 := after[i].num("per_type/" + typ + "/mean_ms")
		if !ok1 || !ok2 {
			continue
		}
		nb, _ := before[i].num("per_type/" + typ + "/requests")
		mb, _ := before[i].num("per_type/" + typ + "/mean_ms")
		sum += na*ma - nb*mb
		count += na - nb
		ok = true
	}
	if count <= 0 {
		return math.NaN(), 0, ok
	}
	return sum / count, count, ok
}

// maxNum is the largest value of a field over nodes.
func maxNum(ms []metrics, path string) (float64, bool) {
	best, any := math.Inf(-1), false
	for _, m := range ms {
		if v, ok := m.num(path); ok {
			best, any = math.Max(best, v), true
		}
	}
	return best, any
}

// restartAll SIGKILLs and restarts every node on its ledger, so /metricz
// counters restart from zero and the boot is observed.
func (b *bench) restartAll() error {
	for _, n := range b.nodes {
		n.kill()
	}
	for _, n := range b.nodes {
		if err := n.start(b.bin); err != nil {
			return err
		}
	}
	for _, n := range b.nodes {
		if err := n.waitReady(120 * time.Second); err != nil {
			return err
		}
	}
	return b.connect()
}

// pollMetricz samples /metricz from every node every interval until stop
// is closed; this is the traced step's own cost.
func (b *bench) pollMetricz(interval time.Duration, stop <-chan struct{}) []timedMetrics {
	var out []timedMetrics
	t := time.NewTicker(interval)
	defer t.Stop()
	start := time.Now()
	for {
		select {
		case <-stop:
			return out
		case <-t.C:
			ms, err := b.allMetricz(context.Background())
			if err == nil {
				out = append(out, timedMetrics{At: time.Since(start), Nodes: ms})
			}
		}
	}
}

type timedMetrics struct {
	At    time.Duration `json:"at_ns"`
	Nodes []metrics     `json:"nodes"`
}

// clientMean is the mean of sent-to-done (not due-to-done) time of the
// requests keep selects, in ms: the client side of a span.
func clientMean(r stepResult, keep func(opKind) bool) float64 {
	var sum float64
	n := 0
	for _, s := range r.spans {
		if keep(s.kind) && !s.failed {
			sum += float64(s.done-s.sent) / 1e6
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// runTraced measures the per-layer metrics: the reference step once
// untraced and once traced (client spans kept and written out, /metricz
// polled), metricz deltas across the timed steps, and a replay of the
// run's op stream through each layer.
func (b *bench) runTraced() (result, error) {
	ctx := context.Background()
	res := newResult()
	if err := b.setup(); err != nil {
		return res, err
	}
	if err := b.restartAll(); err != nil {
		return res, err
	}
	boot, err := b.allMetricz(ctx)
	if err != nil {
		return res, err
	}
	bootMode := 0.0
	if mode, ok := boot[0].str("ledger/boot_mode"); ok && mode != "replay" {
		bootMode = 1
	}
	res.add("ledger.boot_mode", bootMode, "code") // 0 replay, 1 snapshot
	replayed, ok := sumNum(boot, "ledger/records")
	res.addOpt("ledger.replayed_records", replayed, ok, "count")
	if err := b.warm(); err != nil {
		return res, err
	}

	half := time.Duration(b.seconds) * time.Second / 2
	plain, plainCPU, err := b.refStep(half)
	if err != nil {
		return res, err
	}
	before, err := b.allMetricz(ctx)
	if err != nil {
		return res, err
	}
	stop := make(chan struct{})
	polled := make(chan []timedMetrics, 1)
	go func() { polled <- b.pollMetricz(100*time.Millisecond, stop) }()
	traced, tracedCPU, err := b.refStep(half)
	close(stop)
	samples := <-polled
	if err != nil {
		return res, err
	}
	after, err := b.allMetricz(ctx)
	if err != nil {
		return res, err
	}
	kops := float64(len(traced.spans)) / 1000

	// Tracing overhead: traced minus untraced at the same rate.
	res.add("trace.overhead_p50_ms", quantile(traced.latencies(anyKind), 0.5)-quantile(plain.latencies(anyKind), 0.5), "ms")
	res.add("trace.overhead_cpu_ms_per_kop", tracedCPU-plainCPU, "ms")

	// Tails at the reference rate, from the untraced half.
	res.add("reference.read_p99_ms", timeoutIfFailed(quantile(plain.latencies(opKind.read), 0.99)), "ms")
	res.add("reference.write_p99_ms", timeoutIfFailed(quantile(plain.latencies(isWrite), 0.99)), "ms")

	// Load generator validity.
	res.add("loadgen.lag_p99_ms", traced.lagP99(), "ms")
	res.add("loadgen.achieved_ops_per_s", traced.achieved(), "1/s")
	res.add("loadgen.inflight_max", float64(traced.inflightMax), "count")

	// Service layer, and transport as client span minus handler time. A
	// type the mix lacks is timed over a few requests sent after the step.
	probeBefore, probeAfter, err := b.probeAbsent(ctx, probeRequests)
	if err != nil {
		return res, err
	}
	window := func(k opKind) (from, to []metrics) {
		if b.w.Mix[k.String()] > 0 {
			return before, after
		}
		return probeBefore, probeAfter
	}
	for k := opKind(0); k < numKinds; k++ {
		from, to := window(k)
		mean, _, ok := meanDelta(from, to, k.String())
		res.addOpt("service."+strings.ReplaceAll(k.String(), ".", "_")+".mean_ms", mean, ok, "ms")
	}
	for _, k := range []opKind{opAssess, opSubmitBatch} {
		_, to := window(k)
		p99, ok := maxNum(to, "per_type/"+k.String()+"/p99_ms")
		res.addOpt("service."+strings.ReplaceAll(k.String(), ".", "_")+".p99_ms", p99, ok, "ms")
	}
	errs, ok := delta(before, after, "errors")
	res.addOpt("service.errors", errs, ok, "count")
	res.add("transport.read_mean_ms", clientMean(traced, opKind.read)-handlerMean(before, after, "assess", "assess.batch"), "ms")
	res.add("transport.write_mean_ms", clientMean(traced, isWrite)-handlerMean(before, after, "submit", "submit.batch"), "ms")

	// Assessment engine counters.
	v, ok := delta(before, after, "incremental/served")
	res.addOpt("engine.incremental_served", v, ok, "count")
	v, ok = delta(before, after, "incremental/fallbacks")
	res.addOpt("engine.fallbacks", v, ok, "count")
	hits, ok1 := delta(before, after, "cache/hits")
	misses, ok2 := delta(before, after, "cache/misses")
	res.addOpt("assesscache.hit_ratio", hits/(hits+misses), ok1 && ok2 && hits+misses > 0, "ratio")
	v, ok = delta(before, after, "cache/invalidations")
	res.addOpt("assesscache.invalidations", v, ok, "count")
	v, ok = delta(before, after, "cache/evictions")
	res.addOpt("assesscache.evictions", v, ok, "count")

	// Ledger write path.
	flushes, ok1 := delta(before, after, "ledger/group_commit/flushes")
	recs, ok2 := delta(before, after, "ledger/group_commit/records")
	coalesced, ok3 := delta(before, after, "ledger/group_commit/coalesced")
	res.addOpt("ledger.flushes_per_kop", flushes/kops, ok1, "count")
	res.addOpt("ledger.records_per_flush", recs/flushes, ok1 && ok2 && flushes > 0, "count")
	res.addOpt("ledger.coalesced_share", coalesced/flushes, ok1 && ok3 && flushes > 0, "ratio")
	active, ok1 := delta(before, after, "ledger/active_bytes")
	sealed, ok2 := delta(before, after, "ledger/sealed_bytes")
	lrecs, ok3 := delta(before, after, "ledger/records")
	res.addOpt("ledger.bytes_per_record", (active+sealed)/lrecs, ok1 && ok2 && ok3 && lrecs > 0, "B")
	v, ok = delta(before, after, "ledger/roll_overs")
	res.addOpt("ledger.roll_overs", v, ok, "count")

	// Lifecycle.
	for _, l := range []struct{ path, name string }{
		{"lifecycle/fault_ins", "lifecycle.fault_ins_per_kop"},
		{"lifecycle/evictions", "lifecycle.evictions_per_kop"},
		{"lifecycle/reinstates", "lifecycle.reinstates_per_kop"},
	} {
		v, ok := delta(before, after, l.path)
		res.addOpt(l.name, v/kops, ok, "count")
	}
	v, ok = delta(before, after, "lifecycle/fault_waits")
	res.addOpt("lifecycle.fault_waits", v, ok, "count")
	v, ok = delta(before, after, "lifecycle/fault_errors")
	res.addOpt("lifecycle.fault_errors", v, ok, "count")
	v, ok = sumNum(after, "lifecycle/resident_bytes")
	res.addOpt("lifecycle.resident_bytes", v, ok, "B")

	if len(b.nodes) > 1 {
		addClusterMetrics(&res, before, after, kops)
	}

	// Correctness gate, then the layer replay on the run's own data.
	if err := b.quiesce(ctx); err != nil {
		return res, err
	}
	g, histories, missing, err := b.gate(ctx, true)
	if err != nil {
		return res, err
	}
	res.setGate(g, missing, -1)
	if err := b.replay(ctx, &res, traced.ops, histories, g); err != nil {
		return res, err
	}
	if err := b.writeTrace(traced, samples); err != nil {
		return res, err
	}
	for _, l := range b.cfg.Layers {
		if slices.Contains(l.On, b.name) {
			fmt.Printf("layer %s: %v should move %v on this workload\n", l.Layer, l.Metrics, l.Moves)
		}
	}
	return res, nil
}

// probeRequests is how many requests of each type the mix lacks a traced
// run sends to time that type's handler.
const probeRequests = 50

// probeAbsent sends n requests of every type the workload's mix lacks, one
// at a time, and returns /metricz from before and after them (nil when
// the mix has every type).
func (b *bench) probeAbsent(ctx context.Context, n int) (before, after []metrics, err error) {
	var kinds []opKind
	for k := opKind(0); k < numKinds; k++ {
		if b.w.Mix[k.String()] == 0 {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) == 0 {
		return nil, nil, nil
	}
	if before, err = b.allMetricz(ctx); err != nil {
		return nil, nil, err
	}
	for _, k := range kinds {
		for i := 0; i < n; i++ {
			o := b.gen.op(k, 0, i%len(b.conns), len(b.conns))
			b.attempted++
			if err := b.do(ctx, o.conn, &o); err != nil {
				b.failed++
				fmt.Fprintf(os.Stderr, "scoreboard: %s probe: %v\n", k, err)
			}
		}
	}
	after, err = b.allMetricz(ctx)
	return before, after, err
}

// addClusterMetrics adds the forwarding and merge counters of a cluster.
func addClusterMetrics(res *result, before, after []metrics, kops float64) {
	v, ok := delta(before, after, "cluster/forwarded")
	res.addOpt("cluster.forwarded_per_kop", v/kops, ok, "count")
	for _, c := range []struct{ path, name string }{
		{"cluster/forward_errors", "cluster.forward_errors"},
		{"cluster/merged_assess", "cluster.merged_assess"},
		{"cluster/digest_mismatch", "cluster.digest_mismatch"},
	} {
		v, ok := delta(before, after, c.path)
		res.addOpt(c.name, v, ok, "count")
	}
	res.add("cluster.peer_rtt_ms", peerRTT(after), "ms")
}

// handlerMean is the server handler mean over the step for the given
// request types, weighted by their counts.
func handlerMean(before, after []metrics, types ...string) float64 {
	var sum, count float64
	for _, t := range types {
		mean, n, ok := meanDelta(before, after, t)
		if ok && n > 0 {
			sum += mean * n
			count += n
		}
	}
	if count == 0 {
		return math.NaN()
	}
	return sum / count
}

// peerRTT is the mean of every node's last measured peer round trip.
func peerRTT(ms []metrics) float64 {
	var sum float64
	n := 0
	for _, m := range ms {
		v, ok := m.get("cluster/peer_rtt_ms")
		if !ok {
			continue
		}
		peers, ok := v.(map[string]any)
		if !ok {
			continue
		}
		for _, rtt := range peers {
			if f, ok := rtt.(float64); ok {
				sum += f
				n++
			}
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// replay feeds the run's op stream through each layer in this process.
func (b *bench) replay(ctx context.Context, res *result, stream []op, histories [][]feedback.Feedback, g gateResult) error {
	tr := newTracer()
	b.tracer = tr
	served := make([]wire.AssessResponse, 0, len(g.served))
	for _, i := range sortedKeys(g.served) {
		served = append(served, g.served[i])
	}
	wops := sampleOps(stream, 2000)
	wf, err := replayWire(tr, replayFrames(wops, b.pop.ids, b.cfg.Threshold, served), len(wops))
	if err != nil {
		return err
	}
	res.add("wire.encode_ns_per_frame", wf.encodeNs, "ns")
	res.add("wire.decode_ns_per_frame", wf.decodeNs, "ns")
	res.add("wire.allocs_per_frame", wf.allocsPerFrame, "count")
	res.add("wire.bytes_per_op", wf.bytesPerOp, "B")

	keys := assessedKeys(stream, 300, rand.New(rand.NewSource(int64(b.seed)+3)))
	if len(keys) == 0 {
		keys = b.gateSample()
	}
	cf, err := replayCore(tr, keys, b.pop.ids, histories, b.cfg.Threshold)
	if err != nil {
		return err
	}
	res.add("core.accept_p50_us", cf.acceptP50us, "us")
	res.add("core.accept_p99_us", cf.acceptP99us, "us")
	res.add("core.accept_allocs_per_op", cf.allocsPerOp, "count")
	res.add("core.acc_append_ns", cf.accAppendNs, "ns")
	res.add("core.acc_accept_us", cf.accAcceptUs, "us")
	res.add("stats.calibration_cells", float64(cf.calibrationCells), "count")
	res.add("behavior.suspicious_share", cf.suspiciousShare, "ratio")

	batches := writeBatches(b.pop, stream, 100000)
	sf := replayStore(tr, batches, runtime.NumCPU())
	res.add("store.add_batch_ns_per_record", sf.addNs, "ns")
	res.add("store.add_batch_ns_per_record_contended", sf.addContendedNs, "ns")
	res.add("store.snapshot_ns", sf.snapshotNs, "ns")

	lf, err := replayLedger(ctx, tr, filepath.Join(b.dir, "replay"), batches, 1<<20, 300)
	if err != nil {
		return err
	}
	res.add("ledger.append_batch_us", lf.appendBatchUs, "us")
	res.add("ledger.rebuild_p50_us", lf.rebuildP50us, "us")
	res.add("ledger.rebuild_p99_us", lf.rebuildP99us, "us")
	fmt.Printf("replay: %d wire frames, %d Accept calls, %d store/ledger batches, %d rebuilds, %d spans\n",
		2*len(wops), len(keys), len(batches), lf.rebuilds, len(tr.spans))
	return nil
}

// writeBatches is the run's write stream for the store and ledger replay:
// the seeding batches in server-major order, then the timed step's
// writes, up to limit records.
func writeBatches(pop *population, stream []op, limit int) [][]feedback.Feedback {
	var out [][]feedback.Feedback
	n := 0
	for _, b := range pop.seedBatches(wire.MaxSubmitBatch) {
		if n+len(b) > limit/2 {
			break
		}
		out, n = append(out, b), n+len(b)
	}
	for _, o := range stream {
		if !o.kind.read() && n+len(o.recs) <= limit {
			out, n = append(out, o.recs), n+len(o.recs)
		}
	}
	return out
}

// writeTrace writes every span kept in memory: client spans of the traced
// step, the polled /metricz samples and the replay spans.
func (b *bench) writeTrace(traced stepResult, samples []timedMetrics) error {
	f, err := os.Create(filepath.Join(b.dir, "trace.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range traced.spans {
		if err := enc.Encode(map[string]any{
			"span": "client", "id": s.id, "type": s.kind.String(), "conn": s.conn,
			"due_ns": s.due, "sent_ns": s.sent, "done_ns": s.done, "failed": s.failed,
		}); err != nil {
			f.Close()
			return err
		}
	}
	for _, m := range samples {
		if err := enc.Encode(map[string]any{"span": "metricz", "at_ns": m.At, "nodes": m.Nodes}); err != nil {
			f.Close()
			return err
		}
	}
	if b.tracer != nil {
		for _, s := range b.tracer.spans {
			if err := enc.Encode(map[string]any{"span": "replay", "layer": s.Layer, "call": s.Call, "start_ns": s.Start, "dur_ns": s.Dur}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("trace: %d client spans, %d metricz samples written to %s\n", len(traced.spans), len(samples), f.Name())
	return f.Close()
}
