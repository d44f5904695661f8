// Command scoreboard is the repository's end-to-end benchmark. It starts
// the trustd binary as child processes, seeds them with a generated
// population of honest and adversarial servers, drives an open-loop
// Poisson mix of submit, submit.batch, assess and assess.batch requests
// from one process, and reports the sustained rate at a p99 latency limit
// plus latency, cost and set-up figures at a fixed reference rate. After
// every run a correctness gate compares served verdicts with the paper's
// reference core.TwoPhase.Accept and checks that every acknowledged record
// is present, before and after a SIGKILL restart.
//
// With -trace 1 the run instead reports per-layer figures: client spans,
// /metricz deltas and a replay of the run's own op stream through each
// layer's public functions, plus the overhead of tracing itself.
//
// Usage, from the root of a checkout (see run.sh, which builds first):
//
//	scoreboard -root . -trustd .bench_build/trustd -workload read_hot -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// the correctness gate fails or the run cannot complete.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"honestplayer/internal/cluster"
	"honestplayer/internal/feedback"
	"honestplayer/internal/repclient"
	"honestplayer/internal/wire"
)

func main() {
	ok, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "scoreboard:", err)
		os.Exit(1)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "scoreboard: correctness gate failed")
		os.Exit(2)
	}
}

// bench is one run of one workload.
type bench struct {
	cfg     *benchConfig
	w       *workload
	name    string
	seed    uint64
	seconds int
	trace   bool
	bin     string
	dir     string

	pop    *population
	gen    *opGen
	rng    *rand.Rand
	nodes  []*node
	conns  []*repclient.Client // load connections, at most nproc
	admins []*repclient.Client // one per node, used only outside timed steps
	owner  func(i int) int     // node index owning population index i
	tracer *tracer             // replay spans of a traced run
	start  time.Time
	setupN int       // set-ups made so far, each in its own directory
	setupT []float64 // their durations in seconds

	attempted, failed int
}

// phase prints how far into the run a phase ended.
func (b *bench) phase(name string) {
	fmt.Printf("phase %s done at %.2f s\n", name, time.Since(b.start).Seconds())
}

func run(args []string) (bool, error) {
	// The generator holds the whole population; a higher GC target keeps
	// its collections (and the CPU they take from the shared cores) rare.
	debug.SetGCPercent(200)
	fs := flag.NewFlagSet("scoreboard", flag.ContinueOnError)
	var (
		root     = fs.String("root", ".", "root of the checkout: scoreboard/workloads.json is read and .bench_build/ written there")
		bin      = fs.String("trustd", ".bench_build/trustd", "trustd binary to drive")
		name     = fs.String("workload", "", "workload name from scoreboard/workloads.json")
		seed     = fs.Uint64("seed", 1, "seed for the population and the request schedule")
		seconds  = fs.Int("seconds", 10, "seconds of timed load")
		traceArg = fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	cfg, err := loadConfig(filepath.Join(*root, "scoreboard", "workloads.json"))
	if err != nil {
		return false, err
	}
	w, ok := cfg.Workloads[*name]
	if !ok {
		return false, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return false, errors.New("-seconds must be at least 1")
	}
	binPath, err := filepath.Abs(*bin)
	if err != nil {
		return false, err
	}
	if _, err := os.Stat(binPath); err != nil {
		return false, fmt.Errorf("trustd binary: %w", err)
	}
	dir := filepath.Join(*root, ".bench_build", "run", fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traceArg))
	if err := os.RemoveAll(dir); err != nil {
		return false, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	b := &bench{
		cfg: cfg, w: w, name: *name, seed: *seed, seconds: *seconds, trace: *traceArg == 1,
		bin: binPath, dir: dir, rng: rand.New(rand.NewSource(int64(*seed))), start: time.Now(),
	}
	defer b.cleanup()

	if b.pop, err = buildPopulation(w, *seed); err != nil {
		return false, err
	}
	b.gen = newOpGen(w, b.pop, int64(*seed)+1)
	b.owner = func(int) int { return 0 }
	if w.Nodes > 1 {
		if b.owner, err = ringOwner(w.Nodes, b.pop.ids); err != nil {
			return false, err
		}
	}
	fmt.Printf("workload %s: %d servers, %d records seeded, %d adversaries, %d node(s)\n",
		b.name, w.Servers, b.pop.acknowledged(), len(b.pop.adversaries()), w.Nodes)

	var res result
	if b.trace {
		res, err = b.runTraced()
	} else {
		res, err = b.runUntraced()
	}
	if err != nil {
		return false, err
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	if res.Attempted == 0 {
		return false, errors.New("no request was attempted")
	}
	envJSON, err := json.Marshal(environment(*root, b))
	if err != nil {
		return false, err
	}
	fmt.Printf("environment: %s\n", envJSON)
	res.print()
	return res.Correct, nil
}

// ringOwner maps population indexes to the node index owning them on a
// cluster of count nodes named a, b, c, ... — the same ring trustd builds.
func ringOwner(count int, ids []feedback.EntityID) (func(int) int, error) {
	var nodes []cluster.Node
	for i := 0; i < count; i++ {
		id := string(rune('a' + i))
		nodes = append(nodes, cluster.Node{ID: id, Addr: "127.0.0.1:0"})
	}
	cl, err := cluster.New(cluster.Config{Self: "a", Nodes: nodes})
	if err != nil {
		return nil, err
	}
	owners := make([]int, len(ids))
	for i, id := range ids {
		owners[i] = int(cl.Owner(id)[0] - 'a')
	}
	if err := cl.Close(); err != nil {
		return nil, err
	}
	return func(i int) int { return owners[i] }, nil
}

// cleanup tears down and removes the run's ledgers, keeping node logs and
// the trace file.
func (b *bench) cleanup() {
	b.teardown()
	// Glob fails only on a malformed pattern, and this one is fixed.
	ledgers, _ := filepath.Glob(filepath.Join(b.dir, "setup*", "ledger-*"))
	for _, d := range append(ledgers, filepath.Join(b.dir, "replay")) {
		if err := os.RemoveAll(d); err != nil {
			fmt.Fprintln(os.Stderr, "scoreboard: cleanup:", err)
		}
	}
}

// teardown kills every node and closes every client.
func (b *bench) teardown() {
	b.closeClients()
	for _, n := range b.nodes {
		n.kill()
	}
}

func (b *bench) closeClients() {
	for _, c := range append(b.conns, b.admins...) {
		c.Close()
	}
	b.conns, b.admins = nil, nil
}

// loadTimeout bounds one request of the load connections.
const loadTimeout = 15 * time.Second

// connect dials the load connections (at most nproc, spread over the
// entry nodes) and one admin connection per node.
func (b *bench) connect() error {
	b.closeClients()
	// At most nproc connections, and never more than two, so a bigger host
	// runs the same client shape.
	nconn := min(runtime.NumCPU(), 2)
	for i := 0; i < nconn; i++ {
		// The client waits out trustd's own 10s request deadline, so a
		// request fails only when the node gives up on it; its full wait
		// is charged as latency either way.
		c, err := repclient.Dial(b.nodes[i%b.w.EntryNodes].addr,
			repclient.WithProtocol(repclient.ProtoV2), repclient.WithTimeout(loadTimeout))
		if err != nil {
			return err
		}
		b.conns = append(b.conns, c)
	}
	for _, n := range b.nodes {
		c, err := repclient.Dial(n.addr, repclient.WithProtocol(repclient.ProtoV2))
		if err != nil {
			return err
		}
		b.admins = append(b.admins, c)
	}
	return nil
}

// setup replaces any running nodes with fresh ones in a new directory,
// seeds the population through the load connections and warms the
// assessment path. Its duration is kept for setup_s.
func (b *bench) setup() error {
	b.teardown()
	if b.setupN > 0 {
		if err := os.RemoveAll(filepath.Join(b.dir, fmt.Sprintf("setup%d", b.setupN-1))); err != nil {
			return err
		}
	}
	dir := filepath.Join(b.dir, fmt.Sprintf("setup%d", b.setupN))
	b.setupN++
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b.pop.reset()
	t0 := time.Now()
	nodes, err := newNodes(dir, b.w.Nodes, b.w.MemBudget)
	if err != nil {
		return err
	}
	b.nodes = nodes
	for _, n := range nodes {
		if err := n.start(b.bin); err != nil {
			return err
		}
	}
	for _, n := range nodes {
		if err := n.waitReady(60 * time.Second); err != nil {
			return err
		}
	}
	if err := b.connect(); err != nil {
		return err
	}
	batches := b.pop.seedBatches(wire.MaxSubmitBatch)
	err = parallel(len(batches), 2*len(b.conns), func(i int) error {
		resp, err := b.conns[i%len(b.conns)].SubmitBatchReport(batches[i])
		if err != nil {
			return fmt.Errorf("seed batch %d: %w", i, err)
		}
		if resp.Stored != len(batches[i]) {
			return fmt.Errorf("seed batch %d: %d of %d records stored", i, resp.Stored, len(batches[i]))
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := b.warm(); err != nil {
		return err
	}
	b.setupT = append(b.setupT, time.Since(t0).Seconds())
	return nil
}

// warm assesses the warm-up servers (the hottest ranks under Zipf keys,
// coldest first so the hottest end up in trustd's cache; an even spread
// otherwise) so calibration cells and caches are filled before the first
// timed request.
func (b *bench) warm() error {
	n := min(b.w.WarmServers, len(b.pop.ids))
	if n == 0 {
		return nil
	}
	ids := make([]feedback.EntityID, n)
	for i := range ids {
		r := n - 1 - i
		if b.w.ZipfS == 0 {
			r = i * len(b.pop.ids) / n
		}
		ids[i] = b.pop.ids[r]
	}
	const chunk = 64
	return parallel((n+chunk-1)/chunk, 4, func(i int) error {
		part := ids[i*chunk : min((i+1)*chunk, n)]
		items, err := b.conns[i%len(b.conns)].AssessBatch(part, b.cfg.Threshold)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		for _, it := range items {
			if it.Error != nil {
				return fmt.Errorf("warm-up %s: %w", it.Server, it.Error)
			}
		}
		return nil
	})
}

// do executes one request and records the acknowledged records of writes.
func (b *bench) do(ctx context.Context, conn int, o *op) error {
	c := b.conns[conn]
	switch o.kind {
	case opAssess:
		_, err := c.AssessCtx(ctx, b.pop.ids[o.servers[0]], b.cfg.Threshold)
		return err
	case opAssessBatch:
		ids := make([]feedback.EntityID, len(o.servers))
		for i, s := range o.servers {
			ids[i] = b.pop.ids[s]
		}
		items, err := c.AssessBatchCtx(ctx, ids, b.cfg.Threshold)
		if err != nil {
			return err
		}
		for _, it := range items {
			if it.Error != nil {
				return it.Error
			}
		}
		return nil
	case opSubmit:
		stored, err := c.SubmitCtx(ctx, o.recs[0])
		if err != nil {
			return err
		}
		b.pop.ack(o.recs, o.servers)
		if !stored {
			return errors.New("generated record reported as duplicate")
		}
		return nil
	default:
		resp, err := c.SubmitBatchReportCtx(ctx, o.recs)
		if err != nil {
			return err
		}
		var recs []feedback.Feedback
		var idx []int32
		for i, it := range resp.Items {
			if it.Error == nil {
				recs, idx = append(recs, o.recs[i]), append(idx, o.servers[i])
			}
		}
		b.pop.ack(recs, idx)
		if len(recs) != len(o.recs) || resp.Duplicates > 0 {
			return fmt.Errorf("submit.batch: %d of %d records stored", resp.Stored, len(o.recs))
		}
		return nil
	}
}

// step runs one open-loop step at rate for dur and counts its requests.
func (b *bench) step(rate float64, dur time.Duration) stepResult {
	ops := b.gen.ops(poissonDue(b.rng, rate, dur), len(b.conns))
	// Half a second of arrivals due but not complete means the system is
	// far past the limit; stop issuing rather than queue for seconds.
	abortAt := int(rate/2) + 256
	// Start every step on a freshly collected generator heap, so the
	// generator's own GC rarely runs inside a step.
	runtime.GC()
	res := runOpen(context.Background(), ops, abortAt, b.do)
	res.rate, res.dur, res.ops = rate, dur, ops
	attempted, failed := res.counts()
	b.attempted += attempted
	b.failed += failed
	time.Sleep(100 * time.Millisecond) // let the nodes drain between steps
	return res
}

// cpuTotal sums the nodes' CPU time.
func (b *bench) cpuTotal() (time.Duration, error) {
	var total time.Duration
	for _, n := range b.nodes {
		t, err := n.cpuTime()
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// refStep runs the reference step and returns it with the nodes' CPU
// time per 1000 completed requests.
func (b *bench) refStep(dur time.Duration) (stepResult, float64, error) {
	cpu0, err := b.cpuTotal()
	if err != nil {
		return stepResult{}, 0, err
	}
	res := b.step(b.w.ReferenceRate, dur)
	cpu1, err := b.cpuTotal()
	if err != nil {
		return stepResult{}, 0, err
	}
	attempted, failed := res.counts()
	done := attempted - failed
	if done == 0 {
		return res, 0, errors.New("reference step completed no request")
	}
	return res, float64(cpu1-cpu0) / 1e6 / (float64(done) / 1000), nil
}

// gate is the correctness gate: every acknowledged record present, and
// every adversary plus a seeded honest sample assessed exactly as the
// oracle assesses the history the node returns.
func (b *bench) gate(ctx context.Context, withVerdicts bool) (gateResult, [][]feedback.Feedback, int, error) {
	histories, err := fetchHistories(ctx, b.pop.ids, func(i int) *repclient.Client { return b.admins[b.owner(i)] })
	if err != nil {
		return gateResult{}, nil, 0, err
	}
	missing := missingAcked(b.pop, histories)
	if !withVerdicts {
		return gateResult{}, histories, missing, nil
	}
	tp, _, err := newOracle(trustdDefault)
	if err != nil {
		return gateResult{}, nil, 0, err
	}
	g, err := checkVerdicts(ctx, func(i int) *repclient.Client { return b.conns[i%len(b.conns)] },
		tp, b.cfg.Threshold, b.pop.ids, histories, b.gateSample())
	return g, histories, missing, err
}

// gateSample is every adversary plus gateHonest honest servers drawn from
// the seed.
func (b *bench) gateSample() []int {
	sample := b.pop.adversaries()
	var honest []int
	for i, m := range b.pop.servers {
		if m.kind == kindHonest {
			honest = append(honest, i)
		}
	}
	rng := rand.New(rand.NewSource(int64(b.seed) + 2))
	rng.Shuffle(len(honest), func(i, j int) { honest[i], honest[j] = honest[j], honest[i] })
	return append(sample, honest[:min(gateHonest, len(honest))]...)
}

// quiesce waits until every node has finished every request it received
// and its ledger has stopped growing: a request the client gave up on can
// still be running on the node, and the gate must not race it.
func (b *bench) quiesce(ctx context.Context) error {
	const stableFor = 5
	deadline := time.Now().Add(30 * time.Second)
	var prev [2]float64
	stable := 0
	for stable < stableFor {
		if time.Now().After(deadline) {
			return errors.New("nodes did not quiesce within 30s")
		}
		time.Sleep(100 * time.Millisecond)
		ms, err := b.allMetricz(ctx)
		if err != nil {
			return err
		}
		// A field this trustd does not report leaves its condition out.
		received, haveReceived := sumNum(ms, "requests")
		appended, _ := sumNum(ms, "ledger/records")
		done, haveDone := 0.0, false
		for _, m := range ms {
			types, _ := m.get("per_type")
			byType, ok := types.(map[string]any)
			haveDone = haveDone || ok
			for t := range byType {
				n, _ := m.num("per_type/" + t + "/requests")
				done += n
			}
		}
		cur := [2]float64{received, appended}
		if cur == prev && (done >= received || !haveReceived || !haveDone) {
			stable++
		} else {
			stable = 0
		}
		prev = cur
	}
	return nil
}

// restartNode SIGKILLs node i, restarts it on the same ledger and returns
// the time until it answers again.
func (b *bench) restartNode(i int) (time.Duration, error) {
	n := b.nodes[i]
	t0 := time.Now()
	n.kill()
	if err := n.start(b.bin); err != nil {
		return 0, err
	}
	if err := n.waitReady(120 * time.Second); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, ", ")
}

// runUntraced measures the end-to-end metrics.
func (b *bench) runUntraced() (result, error) {
	ctx := context.Background()
	res := newResult()
	for i := 0; i < b.w.Setups; i++ {
		if err := b.setup(); err != nil {
			return res, err
		}
	}
	b.phase("setup")

	total := time.Duration(b.seconds) * time.Second
	refDur := time.Duration(float64(total) * referenceShare)
	stepDur := (total - refDur) / time.Duration(len(b.w.Ladder)*sweepRounds)

	// Restart check, before any timed load so the ledger it replays is the
	// same whatever the ladder sweep does: SIGKILL a node (the only one,
	// or the node no load reaches directly) and restart it on its ledger,
	// five times; then check that every acknowledged record is there and
	// warm the restarted node again.
	var restarts []float64
	for i := 0; i < 5; i++ {
		d, err := b.restartNode(len(b.nodes) - 1)
		if err != nil {
			return res, err
		}
		restarts = append(restarts, d.Seconds())
	}
	fmt.Printf("restart: %s s\n", fmtList(restarts))
	res.add("restart_s", median(restarts), "s")
	if err := b.connect(); err != nil {
		return res, err
	}
	_, _, missingAfterRestart, err := b.gate(ctx, false)
	if err != nil {
		return res, err
	}
	if err := b.warm(); err != nil {
		return res, err
	}
	b.phase("restart")

	ref, cpuPerKop, err := b.refStep(refDur)
	if err != nil {
		return res, err
	}
	fmt.Printf("reference %.0f ops/s for %s: lag p99 %.3f ms\n", b.w.ReferenceRate, refDur, ref.lagP99())
	res.addLatency("read", ref, opKind.read)
	res.addLatency("write", ref, isWrite)
	res.add("server_cpu_ms_per_kop", cpuPerKop, "ms")

	// Memory and ledger size are measured right after the reference step,
	// so the state they see does not depend on how far the ladder sweep
	// went.
	var peak, ledgerBytes int64
	for _, n := range b.nodes {
		rss, err := n.peakRSS()
		if err != nil {
			return res, err
		}
		nb, err := dirBytes(n.ledger)
		if err != nil {
			return res, err
		}
		peak, ledgerBytes = max(peak, rss), ledgerBytes+nb
	}
	res.add("server_peak_rss_mb", float64(peak)/(1<<20), "MB")
	res.add("ledger_bytes_per_record", float64(ledgerBytes)/float64(b.pop.acknowledged()), "B")

	// Each round steps once through every rung, ascending, so a spell of
	// outside load on the shared host falls on several rungs instead of
	// on one: it shifts the p99 curve rather than bending it. A rung whose step fails outright ends the sweep there:
	// the rungs above it would only measure overload.
	steps := make([][]stepResult, len(b.w.Ladder))
	top := len(b.w.Ladder)
	for round := 0; round < sweepRounds; round++ {
		for i, rate := range b.w.Ladder[:top] {
			if b.w.FreshProbes {
				if err := b.setup(); err != nil {
					return res, err
				}
			}
			r := b.step(rate, stepDur)
			steps[i] = append(steps[i], r)
			v := judge([]stepResult{r}, b.cfg.P99LimitMs)
			fmt.Printf("step %.0f ops/s for %s (round %d): achieved %.1f, p99 %.3f ms, errors %d, growing %v, aborted %v\n",
				rate, stepDur, round+1, v.achieved, v.p99, v.errors, v.growing, v.aborted)
			if v.failedOutright() {
				top = i
				break
			}
		}
	}
	var verdicts []verdict
	for _, rs := range steps {
		if len(rs) == 0 {
			break
		}
		v := judge(rs, b.cfg.P99LimitMs)
		fmt.Printf("rate %.0f ops/s over %d step(s): achieved %.1f, p99 %.3f ms -> pass %v\n",
			v.rate, len(rs), v.achieved, v.p99, v.pass)
		verdicts = append(verdicts, v)
	}
	sustained := sustainedRate(verdicts, b.cfg.P99LimitMs)
	res.add("sustained_ops_per_s", sustained, "1/s")
	fmt.Printf("setup: %d run(s), %s s each\n", len(b.setupT), fmtList(b.setupT))
	res.add("setup_s", median(b.setupT), "s")
	b.phase("ladder")

	// The gate runs once every timed request has completed; a last SIGKILL
	// and restart then checks that the records acknowledged under load
	// survive too.
	if err := b.quiesce(ctx); err != nil {
		return res, err
	}
	b.phase("quiesce")
	g, _, missing, err := b.gate(ctx, true)
	if err != nil {
		return res, err
	}
	b.phase("gate")
	if _, err := b.restartNode(len(b.nodes) - 1); err != nil {
		return res, err
	}
	if err := b.connect(); err != nil {
		return res, err
	}
	_, _, missingAfterLoad, err := b.gate(ctx, false)
	if err != nil {
		return res, err
	}
	b.phase("final restart check")
	res.setGate(g, missing, missingAfterRestart+missingAfterLoad)
	return res, nil
}

func isWrite(k opKind) bool { return !k.read() }

// environment describes where and how the run happened.
func environment(root string, b *bench) map[string]any {
	return map[string]any{
		"cpu":                  cpuModel(),
		"nproc":                runtime.NumCPU(),
		"generator_gomaxprocs": runtime.GOMAXPROCS(0),
		"trustd_gomaxprocs":    trustdProcs(),
		"go":                   runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		"kernel":               readTrim("/proc/sys/kernel/osrelease"),
		"commit":               commitOf(root),
		"workload":             b.name,
		"seed":                 b.seed,
		"seconds":              b.seconds,
		"trace":                b.trace,
		"p99_limit_ms":         b.cfg.P99LimitMs,
		"trustd_flags":         b.trustdFlags(),
	}
}

// trustdFlags is the exact flag set of each node.
func (b *bench) trustdFlags() map[string]string {
	out := make(map[string]string, len(b.nodes))
	for _, n := range b.nodes {
		out[n.id] = strings.Join(n.args, " ")
	}
	return out
}

// trustdProcs is the GOMAXPROCS trustd runs with: the environment's
// setting, inherited by the child, or the CPU count.
func trustdProcs() string {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return v
	}
	return fmt.Sprintf("%d (default: nproc)", runtime.NumCPU())
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readTrim(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(raw))
}

// commitOf reads the checkout's git HEAD when there is one; an exported
// checkout has none.
func commitOf(root string) string {
	head := readTrim(filepath.Join(root, ".git", "HEAD"))
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		return readTrim(filepath.Join(root, ".git", ref))
	}
	if head == "unknown" {
		return "unknown (not a git checkout)"
	}
	return head
}

// sortedKeys returns m's keys in order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
