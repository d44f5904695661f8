package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/ledger"
	"honestplayer/internal/store"
	"honestplayer/internal/wire"
)

// replaySpan is one timed call into a layer's public function, made by the
// benchmark process while replaying the run's own op stream.
type replaySpan struct {
	Layer string        `json:"layer"`
	Call  string        `json:"call"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
}

// tracer keeps every replay span in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []replaySpan
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// time runs fn as one span and returns its duration.
func (t *tracer) time(layer, call string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	t.spans = append(t.spans, replaySpan{Layer: layer, Call: call, Start: start.Sub(t.t0), Dur: d})
	return d
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// frame is one request or response of the replayed op stream.
type frame struct {
	typ     wire.MsgType
	payload any
	decode  func() any // a fresh value to decode the payload into
}

// replayFrames builds the request and response frames of ops; responses
// of reads reuse answers the node served in the gate.
func replayFrames(ops []op, ids []feedback.EntityID, threshold float64, served []wire.AssessResponse) []frame {
	var out []frame
	for i, o := range ops {
		resp := served[i%len(served)]
		switch o.kind {
		case opAssess:
			out = append(out,
				frame{wire.TypeAssess, wire.AssessRequest{Server: ids[o.servers[0]], Threshold: threshold}, func() any { return &wire.AssessRequest{} }},
				frame{wire.TypeAssessR, resp, func() any { return &wire.AssessResponse{} }})
		case opAssessBatch:
			req := wire.AssessBatchRequest{Threshold: threshold}
			var br wire.AssessBatchResponse
			for j, s := range o.servers {
				req.Servers = append(req.Servers, ids[s])
				br.Items = append(br.Items, wire.AssessBatchItem{Server: ids[s], AssessResponse: served[(i+j)%len(served)]})
			}
			out = append(out,
				frame{wire.TypeAssessB, req, func() any { return &wire.AssessBatchRequest{} }},
				frame{wire.TypeAssessBR, br, func() any { return &wire.AssessBatchResponse{} }})
		case opSubmit:
			out = append(out,
				frame{wire.TypeSubmit, wire.SubmitRequest{Feedback: o.recs[0]}, func() any { return &wire.SubmitRequest{} }},
				frame{wire.TypeSubmitR, wire.SubmitResponse{Stored: true}, func() any { return &wire.SubmitResponse{} }})
		case opSubmitBatch:
			br := wire.BatchResponse{Stored: len(o.recs), Items: make([]wire.SubmitBatchItem, len(o.recs))}
			for j := range br.Items {
				br.Items[j].Stored = true
			}
			out = append(out,
				frame{wire.TypeSubmitB, wire.BatchRequest{Records: o.recs}, func() any { return &wire.BatchRequest{} }},
				frame{wire.TypeSubmitBR, br, func() any { return &wire.BatchResponse{} }})
		}
	}
	return out
}

// wireFigures are the wire layer's replay results.
type wireFigures struct {
	encodeNs, decodeNs, allocsPerFrame, bytesPerOp float64
}

// replayWire encodes every frame with the v2 codec and framing, then reads
// and decodes them back, one span per call.
func replayWire(tr *tracer, frames []frame, ops int) (wireFigures, error) {
	var buf bytes.Buffer
	var enc, dec time.Duration
	var encErr error
	m0 := mallocs()
	for i, f := range frames {
		enc += tr.time("wire", "WriteV2", func() {
			env, err := wire.V2Codec.Encode(f.typ, uint64(i+1), f.payload)
			if err == nil {
				err = wire.WriteV2(&buf, env)
			}
			if err != nil && encErr == nil {
				encErr = fmt.Errorf("encode %s: %w", f.typ, err)
			}
		})
	}
	if encErr != nil {
		return wireFigures{}, encErr
	}
	total := buf.Len()
	r := bytes.NewReader(buf.Bytes())
	var scratch []byte
	var decErr error
	for _, f := range frames {
		dec += tr.time("wire", "ReadV2Into+DecodePayload", func() {
			var env wire.Envelope
			var err error
			env, scratch, err = wire.ReadV2Into(r, scratch)
			if err == nil {
				err = wire.DecodePayload(env, f.decode())
			}
			if err != nil && decErr == nil {
				decErr = fmt.Errorf("decode %s: %w", f.typ, err)
			}
		})
	}
	allocs := mallocs() - m0
	if decErr != nil {
		return wireFigures{}, decErr
	}
	n := float64(len(frames))
	return wireFigures{
		encodeNs:       float64(enc.Nanoseconds()) / n,
		decodeNs:       float64(dec.Nanoseconds()) / n,
		allocsPerFrame: float64(allocs) / n,
		bytesPerOp:     float64(total) / float64(ops),
	}, nil
}

// coreFigures are the assessment engine's replay results.
type coreFigures struct {
	acceptP50us, acceptP99us, allocsPerOp, suspiciousShare float64
	accAcceptUs, accAppendNs                               float64
	calibrationCells                                       int
}

// replayCore runs core.TwoPhase.Accept, as trustd's default assessor, on
// the histories of the servers the op stream assessed (one untimed pass to
// fill the calibration cells, then one timed pass), and feeds distinct
// histories through core.ServerAccumulator.Append and Accept.
func replayCore(tr *tracer, keys []int, ids []feedback.EntityID, histories [][]feedback.Feedback, threshold float64) (coreFigures, error) {
	tp, cal, err := newOracle(trustdDefault)
	if err != nil {
		return coreFigures{}, err
	}
	hs := make([]*feedback.History, len(keys))
	for j, i := range keys {
		if hs[j], err = feedback.NewHistoryFromRecords(ids[i], histories[i]); err != nil {
			return coreFigures{}, err
		}
	}
	for _, h := range hs {
		if _, _, err := tp.Accept(h, threshold); err != nil {
			return coreFigures{}, err
		}
	}
	var fig coreFigures
	lat := make([]float64, len(hs))
	suspicious := 0
	m0 := mallocs()
	for j, h := range hs {
		var a core.Assessment
		d := tr.time("core", "TwoPhase.Accept", func() { _, a, err = tp.Accept(h, threshold) })
		if err != nil {
			return fig, err
		}
		lat[j] = float64(d.Nanoseconds()) / 1e3
		if a.Suspicious {
			suspicious++
		}
	}
	fig.allocsPerOp = float64(mallocs()-m0) / float64(len(hs))
	fig.acceptP50us, fig.acceptP99us = quantile(lat, 0.5), quantile(lat, 0.99)
	fig.suspiciousShare = float64(suspicious) / float64(len(hs))
	fig.calibrationCells = cal.CacheSize()

	seen := map[int]bool{}
	var appendNs, accepts []float64
	for _, i := range keys {
		if seen[i] || len(seen) == 50 {
			continue
		}
		seen[i] = true
		acc, err := tp.NewServerAccumulator(ids[i])
		if err != nil {
			return fig, err
		}
		recs := histories[i]
		d := tr.time("core", "ServerAccumulator.Append", func() {
			for _, f := range recs {
				acc.Append(f)
			}
		})
		appendNs = append(appendNs, float64(d.Nanoseconds())/float64(max(len(recs), 1)))
		d = tr.time("core", "ServerAccumulator.Accept", func() { _, _, err = acc.Accept(threshold) })
		if err != nil {
			return fig, err
		}
		accepts = append(accepts, float64(d.Nanoseconds())/1e3)
	}
	fig.accAppendNs, fig.accAcceptUs = median(appendNs), median(accepts)
	return fig, nil
}

// storeFigures are the feedback store's replay results.
type storeFigures struct {
	addNs, addContendedNs, snapshotNs float64
}

// replayStore feeds the write batches through store.Store.AddBatch from
// one caller and from callers concurrent callers, then snapshots every
// server it holds. Each concurrent caller takes the records of its own
// servers from every batch, so every server's records still arrive in
// time order.
func replayStore(tr *tracer, batches [][]feedback.Feedback, callers int) storeFigures {
	records := 0
	for _, b := range batches {
		records += len(b)
	}
	var fig storeFigures
	st := store.New()
	var one time.Duration
	for _, b := range batches {
		one += tr.time("store", "Store.AddBatch", func() { st.AddBatch(b, 0) })
	}
	fig.addNs = float64(one.Nanoseconds()) / float64(records)

	st2 := store.New()
	parts := make([][][]feedback.Feedback, callers)
	for _, b := range batches {
		split := make([][]feedback.Feedback, callers)
		for _, f := range b {
			c := st2.ShardIndex(f.Server) % callers
			split[c] = append(split[c], f)
		}
		for c, part := range split {
			if len(part) > 0 {
				parts[c] = append(parts[c], part)
			}
		}
	}
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, part := range parts[c] {
				t := time.Now()
				st2.AddBatch(part, 0)
				d := time.Since(t)
				mu.Lock()
				tr.spans = append(tr.spans, replaySpan{Layer: "store", Call: "Store.AddBatch(contended)", Start: t.Sub(tr.t0), Dur: d})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	fig.addContendedNs = float64(time.Since(start).Nanoseconds()) / float64(records)

	servers := st.Servers()
	var snap time.Duration
	for _, id := range servers {
		snap += tr.time("store", "Store.Snapshot", func() { st.Snapshot(id) })
	}
	fig.snapshotNs = float64(snap.Nanoseconds()) / float64(max(len(servers), 1))
	return fig
}

// ledgerFigures are the ledger's replay results.
type ledgerFigures struct {
	appendBatchUs, rebuildP50us, rebuildP99us float64
	rebuilds                                  int
}

// replayLedger feeds the write batches through a fresh
// ledger.PersistentStore.AddBatch, then reopens a second store under a
// small memory budget and rebuilds evicted servers with RebuildServer.
func replayLedger(ctx context.Context, tr *tracer, dir string, batches [][]feedback.Feedback, budget int64, maxRebuilds int) (ledgerFigures, error) {
	var fig ledgerFigures
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fig, err
	}
	ps, err := ledger.OpenStoreOptions(ctx, dir+"/append", ledger.Options{Shards: store.DefaultShards})
	if err != nil {
		return fig, err
	}
	var total time.Duration
	for _, b := range batches {
		var res []store.AddResult
		total += tr.time("ledger", "PersistentStore.AddBatch", func() { res = ps.AddBatch(b, 0) })
		for _, r := range res {
			if r.Err != nil {
				ps.Close()
				return fig, fmt.Errorf("ledger replay: %w", r.Err)
			}
		}
	}
	if err := ps.Close(); err != nil {
		return fig, err
	}
	fig.appendBatchUs = float64(total.Nanoseconds()) / 1e3 / float64(max(len(batches), 1))

	ps, err = ledger.OpenStoreOptions(ctx, dir+"/rebuild", ledger.Options{Shards: store.DefaultShards, MemBudget: budget})
	if err != nil {
		return fig, err
	}
	defer ps.Close()
	for _, b := range batches {
		for _, r := range ps.AddBatch(b, 0) {
			if r.Err != nil {
				return fig, fmt.Errorf("ledger replay under budget: %w", r.Err)
			}
		}
	}
	st := ps.Store()
	var lat []float64
	for _, id := range st.Servers() {
		if len(lat) == maxRebuilds {
			break
		}
		if _, evicted := st.StubOf(id); !evicted {
			continue
		}
		var rerr error
		d := tr.time("ledger", "PersistentStore.RebuildServer", func() { rerr = ps.RebuildServer(id) })
		if rerr != nil {
			return fig, rerr
		}
		lat = append(lat, float64(d.Nanoseconds())/1e3)
	}
	fig.rebuilds = len(lat)
	fig.rebuildP50us, fig.rebuildP99us = quantile(lat, 0.5), quantile(lat, 0.99)
	return fig, nil
}

// sampleOps picks up to n ops of stream, evenly spaced, keeping the mix.
func sampleOps(stream []op, n int) []op {
	if len(stream) <= n {
		return stream
	}
	out := make([]op, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, stream[i*len(stream)/n])
	}
	return out
}

// assessedKeys returns up to n servers the op stream assessed, drawn with
// the stream's own frequencies.
func assessedKeys(stream []op, n int, rng *rand.Rand) []int {
	var all []int
	for _, o := range stream {
		if o.kind.read() {
			for _, s := range o.servers {
				all = append(all, int(s))
			}
		}
	}
	if len(all) <= n {
		return all
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:n]
}
