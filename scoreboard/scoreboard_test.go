package main

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"honestplayer/internal/feedback"
	"honestplayer/internal/repclient"
	"honestplayer/internal/repserver"
)

func smallWorkload() *workload {
	return &workload{
		Nodes: 1, EntryNodes: 1, Servers: 60, HistoryMax: 200, HistoryMin: 50, HistoryDecay: 0.5,
		ZipfS: 1.1, AssessBatch: 4, SubmitBatch: [2]int{2, 8},
		Mix:    map[string]float64{"assess": 0.5, "assess.batch": 0.2, "submit": 0.1, "submit.batch": 0.2},
		Ladder: []float64{100}, ReferenceRate: 100, Setups: 1,
	}
}

func TestPoissonScheduleReproducible(t *testing.T) {
	a := poissonDue(rand.New(rand.NewSource(7)), 5000, time.Second)
	b := poissonDue(rand.New(rand.NewSource(7)), 5000, time.Second)
	c := poissonDue(rand.New(rand.NewSource(8)), 5000, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different arrival times")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave identical arrival times")
	}
	if n := len(a); n < 4700 || n > 5300 {
		t.Fatalf("%d arrivals in 1s at 5000/s", n)
	}

	// The whole request stream, not just its timing, is a function of the
	// seed.
	w := smallWorkload()
	build := func() []op {
		pop, err := buildPopulation(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		return newOpGen(w, pop, 4).ops(a, 1)
	}
	if !reflect.DeepEqual(build(), build()) {
		t.Fatal("same seed gave different requests")
	}
}

// A server that stalls every request for 200 ms must be charged for the
// stall on every request queued behind it, from each request's due time.
func TestStalledServerChargedFromDue(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex // the fake server handles one request at a time
	first := true
	do := func(ctx context.Context, conn int, o *op) error {
		mu.Lock()
		defer mu.Unlock()
		if first {
			first = false
			time.Sleep(stall)
		}
		return nil
	}
	ops := make([]op, 300)
	for i := range ops {
		ops[i] = op{kind: opAssess, due: time.Duration(i) * time.Millisecond}
	}
	res := runOpen(context.Background(), ops, 0, do)
	res.dur = 300 * time.Millisecond
	if len(res.spans) != len(ops) {
		t.Fatalf("%d of %d requests issued", len(res.spans), len(ops))
	}
	// Requests due at 100 ms waited until the stall ended near 200 ms.
	if lat := res.spans[100].latency(); lat < 80*time.Millisecond {
		t.Fatalf("request due mid-stall charged %v, want about 100ms", lat)
	}
	slow := 0
	for _, s := range res.spans {
		if s.latency() > 50*time.Millisecond {
			slow++
		}
	}
	if slow < 100 {
		t.Fatalf("only %d requests charged for the stall; coordinated omission", slow)
	}
	if p99 := quantile(res.latencies(anyKind), 0.99); p99 < 150 {
		t.Fatalf("p99 %.1f ms hides a 200 ms stall", p99)
	}
	if v := judge([]stepResult{res}, 10); v.pass {
		t.Fatal("a step with a 200 ms stall passed a 10 ms limit")
	}
}

func TestGrowingBacklog(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	flat := make([]int, 100)
	growing := make([]int, 100)
	spike := make([]int, 100)
	for i := range flat {
		flat[i] = 5 + rng.Intn(10)
		growing[i] = 5 + 4*i
		spike[i] = flat[i]
		if i >= 40 && i < 45 {
			spike[i] = 400
		}
	}
	const slack = 50
	if growingBacklog(flat, slack) {
		t.Error("steady backlog reported as growing")
	}
	if !growingBacklog(growing, slack) {
		t.Error("linearly growing backlog not detected")
	}
	if growingBacklog(spike, slack) {
		t.Error("transient spike that drained reported as growing")
	}
	if growingBacklog(growing[:5], slack) {
		t.Error("too few samples to judge, yet reported as growing")
	}
}

func TestSustainedRate(t *testing.T) {
	steps := func(p99s ...float64) []verdict {
		vs := make([]verdict, len(p99s))
		for i, p := range p99s {
			vs[i] = verdict{rate: float64(1000 * (i + 1)), p99: p}
		}
		return vs
	}
	grown := steps(4, 6, 8, 9)
	grown[2].growing = true
	for _, c := range []struct {
		name string
		vs   []verdict
		want float64
	}{
		{"all within the limit", steps(2, 3, 4, 5), 4000},
		{"crossing interpolated", steps(2, 5, 8, 14), 3000 + 1000*2.0/6},
		{"noisy step pooled with the next", steps(5, 12, 9, 15), 1000 + 1000*(10-5)/(10.5-5)},
		{"growing backlog ends the curve", grown, 2000},
		{"lowest rung over the limit", steps(20, 30), 500},
	} {
		if got := sustainedRate(c.vs, 10); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: sustained %.3f, want %.3f", c.name, got, c.want)
		}
	}
	failed := steps(4, 6)
	failed[0].errors = 1
	if got := sustainedRate(failed, 10); got != 0 {
		t.Errorf("lowest step failed outright: sustained %.3f, want 0", got)
	}
}

// The correctness gate passes against a server running trustd's default
// assessor and trips when the oracle is configured differently.
func TestGateTripsOnWrongOracle(t *testing.T) {
	served, _, err := newOracle(trustdDefault)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := repserver.New("127.0.0.1:0", repserver.Config{Assessor: served})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	c, err := repclient.Dial(srv.Addr(), repclient.WithProtocol(repclient.ProtoV2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pop, err := buildPopulation(smallWorkload(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range pop.seedBatches(64) {
		if _, _, err := c.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	source := func(int) *repclient.Client { return c }
	histories, err := fetchHistories(ctx, pop.ids, source)
	if err != nil {
		t.Fatal(err)
	}
	if missing := missingAcked(pop, histories); missing != 0 {
		t.Fatalf("%d acknowledged records missing", missing)
	}
	sample := make([]int, len(pop.ids))
	for i := range sample {
		sample[i] = i
	}
	check := func(cfg oracleConfig) gateResult {
		tp, _, err := newOracle(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := checkVerdicts(ctx, source, tp, 0.8, pop.ids, histories, sample)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	if g := check(trustdDefault); g.mismatches != 0 || g.checked != len(sample) {
		t.Fatalf("default oracle: %d mismatches of %d checked", g.mismatches, g.checked)
	}
	if g := check(oracleConfig{Window: 11, Seed: trustdDefault.Seed}); g.mismatches == 0 {
		t.Fatal("an oracle with window 11 agreed with a window-10 server: the gate cannot fail")
	}

	// A record the generator believes acknowledged but the server lacks is
	// reported missing.
	pop.ack([]feedback.Feedback{{Time: time.Unix(1e6, 0).UTC(), Server: pop.ids[0], Client: "ghost", Rating: feedback.Positive}}, []int32{0})
	if missing := missingAcked(pop, histories); missing != 1 {
		t.Fatalf("ghost record: %d missing, want 1", missing)
	}
}

// Every server's writes go through one connection in time order, so the
// node, which applies a connection's requests in order, only appends.
func TestWritesTimeOrderedPerConnection(t *testing.T) {
	w := smallWorkload()
	pop, err := buildPopulation(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	const conns = 2
	ops := newOpGen(w, pop, 4).ops(poissonDue(rand.New(rand.NewSource(1)), 2000, time.Second), conns)
	conn := map[feedback.EntityID]int{}
	last := map[feedback.EntityID]time.Time{}
	for _, o := range ops {
		for _, f := range o.recs {
			if c, ok := conn[f.Server]; ok && c != o.conn {
				t.Fatalf("%s written on connections %d and %d", f.Server, c, o.conn)
			}
			conn[f.Server] = o.conn
			if !f.Time.After(last[f.Server]) {
				t.Fatalf("%s: record at %v after one at %v", f.Server, f.Time, last[f.Server])
			}
			last[f.Server] = f.Time
		}
	}
	if len(conn) == 0 {
		t.Fatal("no writes generated")
	}
}

// A fresh set-up forgets what earlier nodes acknowledged and seeds the
// same records again.
func TestPopulationReset(t *testing.T) {
	w := smallWorkload()
	pop, err := buildPopulation(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	seeded, batches := pop.acknowledged(), pop.seedBatches(64)
	g := newOpGen(w, pop, 4)
	for _, o := range g.ops(poissonDue(rand.New(rand.NewSource(1)), 1000, time.Second), 1) {
		pop.ack(o.recs, o.servers)
	}
	if pop.acknowledged() == seeded {
		t.Fatal("no writes acknowledged")
	}
	pop.reset()
	if got := pop.acknowledged(); got != seeded {
		t.Fatalf("%d records acknowledged after reset, want %d", got, seeded)
	}
	if !reflect.DeepEqual(pop.seedBatches(64), batches) {
		t.Fatal("reset changed the seeded records")
	}
}
