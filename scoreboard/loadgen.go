package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"honestplayer/internal/feedback"
)

// opKind is one of the four request types of the open-loop mix.
type opKind uint8

const (
	opAssess opKind = iota
	opAssessBatch
	opSubmit
	opSubmitBatch
	numKinds
)

var kindNames = [numKinds]string{"assess", "assess.batch", "submit", "submit.batch"}

func (k opKind) String() string { return kindNames[k] }

// read reports whether the request is an assessment.
func (k opKind) read() bool { return k == opAssess || k == opAssessBatch }

// op is one scheduled request.
type op struct {
	kind opKind
	conn int // the load connection that sends it
	// due is when the request should be sent, as an offset from the start
	// of its step. Latency is charged from due, not from the actual send.
	due time.Duration
	// servers are population indexes: the assessed servers of a read.
	servers []int32
	// recs are the records of a write.
	recs []feedback.Feedback
}

// span is the client-side record of one request, all times offsets from
// the start of its step. id is the request's sequence number in the step;
// the client library keeps its mux ids private, so spans are keyed by it.
type span struct {
	id         uint64
	kind       opKind
	conn       int
	due        time.Duration
	sent, done time.Duration
	failed     bool
}

// latency is the time from when the request was due to its completion.
func (s span) latency() time.Duration { return s.done - s.due }

// poissonDue returns the arrival times of a Poisson process of the given
// rate over dur: exponential gaps drawn from rng.
func poissonDue(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	end := dur.Seconds()
	for t := rng.ExpFloat64() / rate; t < end; t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// doFunc executes one request on connection conn.
type doFunc func(ctx context.Context, conn int, o *op) error

// stepResult is the outcome of one open-loop step at a fixed rate.
type stepResult struct {
	rate  float64
	dur   time.Duration
	ops   []op
	spans []span
	// backlog samples, every backlogTick while the step dispatches, the
	// number of requests that were due but had not completed.
	backlog     []int
	inflightMax int
	// aborted reports that the step stopped issuing requests early because
	// the backlog passed the abort limit. The unissued requests are not
	// attempted, and the step fails the latency limit.
	aborted bool
}

const backlogTick = 20 * time.Millisecond

// runOpen issues ops at their due times whatever the completions do: each
// request is handed to a worker that is not waiting on another, on its
// op's connection, and is timed from its due time, so a stall is charged
// to every request queued behind it. When more than abortAt requests are due
// but not complete, the step stops issuing (the system has clearly fallen
// behind) and waits for what is in flight.
func runOpen(ctx context.Context, ops []op, abortAt int, do doFunc) stepResult {
	res := stepResult{spans: make([]span, len(ops))}
	if len(ops) == 0 {
		return res
	}
	res.dur = ops[len(ops)-1].due
	var (
		wg        sync.WaitGroup
		inflight  atomic.Int64
		completed atomic.Int64
		maxIn     int64
		stop      = make(chan struct{})
		sampled   = make(chan []int, 1)
	)
	start := time.Now().Add(time.Millisecond)
	since := func() time.Duration { return time.Since(start) }

	// The sampler counts due-but-incomplete requests from the schedule.
	go func() {
		var samples []int
		t := time.NewTicker(backlogTick)
		defer t.Stop()
		for {
			select {
			case <-stop:
				sampled <- samples
				return
			case <-t.C:
				now := since()
				due := sort.Search(len(ops), func(i int) bool { return ops[i].due > now })
				samples = append(samples, due-int(completed.Load()))
			}
		}
	}()

	// Each request runs on a worker goroutine: an idle one if there is
	// one, a new one otherwise. Workers stay for the rest of the step, so
	// the pool grows to the most requests in flight at once and requests
	// do not each pay for a fresh goroutine's stack growth.
	idle := make(chan int)
	worker := func(i int) {
		defer wg.Done()
		for ok := true; ok; i, ok = <-idle {
			sp := span{id: uint64(i + 1), kind: ops[i].kind, conn: ops[i].conn, due: ops[i].due}
			sp.sent = since()
			sp.failed = do(ctx, sp.conn, &ops[i]) != nil
			sp.done = since()
			res.spans[i] = sp
			completed.Add(1)
			inflight.Add(-1)
		}
	}
	issued := 0
	for i := range ops {
		if wait := time.Until(start.Add(ops[i].due)); wait > 0 {
			time.Sleep(wait)
		}
		now := since()
		due := sort.Search(len(ops), func(j int) bool { return ops[j].due > now })
		if abortAt > 0 && due-int(completed.Load()) > abortAt {
			res.aborted = true
			break
		}
		if n := inflight.Add(1); n > maxIn {
			maxIn = n
		}
		issued++
		select {
		case idle <- i:
		default:
			wg.Add(1)
			go worker(i)
		}
	}
	close(idle)
	close(stop)
	res.backlog = <-sampled
	wg.Wait()
	res.spans = res.spans[:issued]
	res.inflightMax = int(maxIn)
	return res
}

// counts returns the attempted (issued) and failed requests of the step.
func (r stepResult) counts() (attempted, failed int) {
	for _, s := range r.spans {
		if s.failed {
			failed++
		}
	}
	return len(r.spans), failed
}

// latencies returns the latencies of the requests keep selects, in
// milliseconds. A failed request is charged +Inf: it missed any limit.
func (r stepResult) latencies(keep func(opKind) bool) []float64 {
	var out []float64
	for _, s := range r.spans {
		if !keep(s.kind) {
			continue
		}
		if s.failed {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, float64(s.latency())/1e6)
	}
	return out
}

// achieved is the completed requests per second over the step.
func (r stepResult) achieved() float64 {
	if r.dur <= 0 {
		return 0
	}
	attempted, failed := r.counts()
	return float64(attempted-failed) / r.dur.Seconds()
}

// lagP99 is the 99th percentile of how late the generator sent requests.
func (r stepResult) lagP99() float64 {
	var lags []float64
	for _, s := range r.spans {
		lags = append(lags, float64(s.sent-s.due)/1e6)
	}
	return quantile(lags, 0.99)
}

func anyKind(opKind) bool { return true }

// quantile returns the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// growingBacklog reports whether the sampled backlog grew during the step:
// its mean over the last quarter exceeds its mean over the first quarter by
// more than slack requests. With slack set to the requests that arrive in
// a few latency limits, a growing backlog means latency is rising past the
// limit even if the step ended before the percentile showed it.
func growingBacklog(samples []int, slack float64) bool {
	n := len(samples)
	if n < 8 {
		return false
	}
	mean := func(xs []int) float64 {
		sum := 0
		for _, x := range xs {
			sum += x
		}
		return float64(sum) / float64(len(xs))
	}
	q := n / 4
	return mean(samples[n-q:])-mean(samples[:q]) > slack
}

// backlogLimits is how many latency limits' worth of arrivals the backlog
// may grow by within a step before the step counts as falling behind. A
// single collector pause leaves a backlog of one or two limits that
// drains; overload grows it without end.
const backlogLimits = 5

// verdict is the pass/fail outcome of the steps at one rate against the
// latency limit.
type verdict struct {
	rate     float64
	achieved float64
	p99      float64
	errors   int
	growing  bool
	aborted  bool
	pass     bool
}

// windowDur is the length of the time slices a step's tail latency is
// taken over.
const windowDur = 250 * time.Millisecond

// windowTails returns the tail latency of each windowDur slice of the
// step (one slice when the step is shorter). Each slice's tail follows
// the tailQuantile rule: its p99 once it holds 1000 requests, its tenth
// slowest below that.
func (r stepResult) windowTails() []float64 {
	k := max(1, int(r.dur/windowDur))
	slices := make([][]float64, k)
	for _, s := range r.spans {
		w := min(int(time.Duration(k)*s.due/max(r.dur, 1)), k-1)
		lat := math.Inf(1)
		if !s.failed {
			lat = float64(s.latency()) / 1e6
		}
		slices[w] = append(slices[w], lat)
	}
	tails := make([]float64, 0, k)
	for _, xs := range slices {
		if len(xs) > 0 {
			tails = append(tails, quantile(xs, tailQuantile(len(xs))))
		}
	}
	return tails
}

// failedOutright reports whether the step failed whatever its p99: a
// request failed, the backlog grew or the generator was aborted.
func (v verdict) failedOutright() bool { return v.errors > 0 || v.growing || v.aborted }

// judge applies the latency limit to the steps run at one rate. Their p99
// is the median over the time slices of every step of each slice's tail
// (failures charged as over the limit): on a small shared host a single
// stall otherwise decides a whole step, while a stall that lasts across
// slices still shows. The rate passes when that p99 is within limitMs,
// nothing failed, no step's generator was aborted and no step's backlog
// grew.
func judge(steps []stepResult, limitMs float64) verdict {
	v := verdict{rate: steps[0].rate}
	var tails []float64
	var completed int
	var dur time.Duration
	for _, r := range steps {
		attempted, failed := r.counts()
		completed += attempted - failed
		dur += r.dur
		v.errors += failed
		v.growing = v.growing || growingBacklog(r.backlog, backlogLimits*r.rate*limitMs/1000)
		v.aborted = v.aborted || r.aborted
		tails = append(tails, r.windowTails()...)
	}
	if dur > 0 {
		v.achieved = float64(completed) / dur.Seconds()
	}
	v.p99 = median(tails)
	v.pass = v.p99 <= limitMs && !v.failedOutright()
	return v
}

// sustainedRate reads the rate at which the p99 reaches limitMs off a
// sweep of steps at every rung of the (ascending) ladder. A step that fails
// outright (a failed request, a growing backlog or an aborted generator)
// ends the curve. The p99s of the steps before it are made non-decreasing
// in rate by pooling adjacent violators, so step-to-step noise is averaged
// rather than deciding the result, and the limit crossing is interpolated
// linearly between the two steps around it. On a small shared host the
// p99 near the limit rises slowly with load, so the highest passing rung
// alone jumps by whole rungs with outside load; the crossing moves by
// about as much as the p99s do.
//
// The rate is the top rung when every step is within the limit, that of
// the last step before one that fails outright, and the lowest rung scaled
// by limitMs/p99 when even its p99 is over the limit. It is 0 only when
// the lowest step fails outright.
func sustainedRate(vs []verdict, limitMs float64) float64 {
	var rates, p99s []float64
	for _, v := range vs {
		if v.failedOutright() {
			break
		}
		rates, p99s = append(rates, v.rate), append(p99s, v.p99)
	}
	if len(rates) == 0 {
		return 0
	}
	fit := nonDecreasing(p99s)
	if fit[0] > limitMs {
		return rates[0] * limitMs / fit[0]
	}
	for i := 1; i < len(fit); i++ {
		if fit[i] > limitMs {
			return rates[i-1] + (rates[i]-rates[i-1])*(limitMs-fit[i-1])/(fit[i]-fit[i-1])
		}
	}
	return rates[len(rates)-1]
}

// nonDecreasing is the least-squares non-decreasing fit to xs (pool
// adjacent violators): each run of values that falls is replaced by its
// mean.
func nonDecreasing(xs []float64) []float64 {
	type block struct {
		sum float64
		n   int
	}
	var blocks []block
	for _, x := range xs {
		blocks = append(blocks, block{x, 1})
		for k := len(blocks) - 1; k > 0; k-- {
			a, b := blocks[k-1], blocks[k]
			if a.sum/float64(a.n) <= b.sum/float64(b.n) {
				break
			}
			blocks = append(blocks[:k-1], block{a.sum + b.sum, a.n + b.n})
		}
	}
	out := make([]float64, 0, len(xs))
	for _, b := range blocks {
		for j := 0; j < b.n; j++ {
			out = append(out, b.sum/float64(b.n))
		}
	}
	return out
}
