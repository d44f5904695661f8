package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"honestplayer/internal/attack"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

// Server kinds of the population.
const (
	kindHonest      = "honest"
	kindHibernating = "hibernating"
	kindPeriodic    = "periodic"
	kindCollusion   = "collusion"
)

// serverModel is the generator's view of one server: what it is and every
// record the node acknowledged for it.
type serverModel struct {
	id   feedback.EntityID
	kind string
	p    float64
	// next is the logical time of the server's next generated record.
	next int64
	// acked holds every acknowledged record, the seeded ones first.
	acked  []feedback.Feedback
	seeded int
}

// population is the seeded set of servers. Index 0 is the most popular
// rank and has the longest history.
type population struct {
	servers []*serverModel
	ids     []feedback.EntityID

	mu       sync.Mutex // guards acked, totalAck
	totalAck int
}

// historyLen is the seeded history length of popularity rank r.
func (w *workload) historyLen(r int) int {
	n := float64(w.HistoryMax) / math.Pow(float64(r+1), w.HistoryDecay)
	return max(w.HistoryMin, int(math.Round(n)))
}

// buildPopulation generates the workload's servers from seed: adversaries
// are spread evenly over the popularity ranks and built with the
// internal/attack generators; honest servers draw p from [0.7, 1).
func buildPopulation(w *workload, seed uint64) (*population, error) {
	rng := stats.NewRNG(seed)
	pop := &population{
		servers: make([]*serverModel, w.Servers),
		ids:     make([]feedback.EntityID, w.Servers),
	}
	// Adversaries sit at fixed ranks (the last of every advEvery), so the
	// seed changes their records but not where they are in the popularity
	// order.
	advEvery := int(math.Round(1 / adversaryShare))
	colluders := []feedback.EntityID{"colluder-0", "colluder-1", "colluder-2", "colluder-3", "colluder-4"}
	adv := 0
	for r := range pop.servers {
		id := feedback.EntityID(fmt.Sprintf("s%06d", r))
		n := w.historyLen(r)
		m := &serverModel{id: id, kind: kindHonest, p: 0.7 + 0.3*rng.Float64()}
		var (
			h   *feedback.History
			err error
		)
		if r%advEvery == advEvery-1 {
			m.p = 0.95
			switch adv % 3 {
			case 0:
				m.kind = kindHibernating
				burst := max(3, n/10)
				h, err = attack.GenHibernating(id, n-burst, m.p, burst, rng)
			case 1:
				m.kind = kindPeriodic
				h, err = attack.GenPeriodic(id, n, 20, 0.3, rng)
			default:
				m.kind = kindCollusion
				h, err = attack.PrepareByColluders(id, n, m.p, colluders, rng)
			}
			adv++
		} else {
			h, err = attack.GenHonest(id, n, m.p, 50, rng)
		}
		if err != nil {
			return nil, fmt.Errorf("server %s: %w", id, err)
		}
		m.acked = make([]feedback.Feedback, h.Len())
		for i := range m.acked {
			m.acked[i] = h.At(i)
		}
		m.next, m.seeded = int64(h.Len()), h.Len()
		pop.servers[r], pop.ids[r] = m, id
		pop.totalAck += h.Len()
	}
	return pop, nil
}

// seedBatches cuts the seeded records into submit.batch frames in
// server-major order: every record of rank 0, then rank 1, and so on.
func (pop *population) seedBatches(size int) [][]feedback.Feedback {
	var out [][]feedback.Feedback
	var cur []feedback.Feedback
	for _, m := range pop.servers {
		for _, f := range m.acked {
			cur = append(cur, f)
			if len(cur) == size {
				out = append(out, cur)
				cur = nil
			}
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// reset forgets every record acknowledged after seeding, for nodes set up
// again from scratch. Logical times keep counting, so no later record
// repeats a forgotten one.
func (pop *population) reset() {
	pop.mu.Lock()
	defer pop.mu.Unlock()
	pop.totalAck = 0
	for _, m := range pop.servers {
		m.acked = m.acked[:m.seeded:m.seeded]
		pop.totalAck += m.seeded
	}
}

// ack records that the node acknowledged recs.
func (pop *population) ack(recs []feedback.Feedback, idx []int32) {
	pop.mu.Lock()
	for i, f := range recs {
		m := pop.servers[idx[i]]
		m.acked = append(m.acked, f)
	}
	pop.totalAck += len(recs)
	pop.mu.Unlock()
}

// acknowledged returns the total number of acknowledged records.
func (pop *population) acknowledged() int {
	pop.mu.Lock()
	defer pop.mu.Unlock()
	return pop.totalAck
}

// adversaries returns the indexes of every adversarial server.
func (pop *population) adversaries() []int {
	var out []int
	for i, m := range pop.servers {
		if m.kind != kindHonest {
			out = append(out, i)
		}
	}
	return out
}

// opGen turns a schedule of due times into requests: request types by the
// workload's mix, keys by its popularity law, records with fresh logical
// times so no two generated records collide.
type opGen struct {
	w    *workload
	pop  *population
	rng  *rand.Rand
	zipf *rand.Zipf
	cum  [numKinds]float64
}

func newOpGen(w *workload, pop *population, seed int64) *opGen {
	g := &opGen{w: w, pop: pop, rng: rand.New(rand.NewSource(seed))}
	if w.ZipfS > 0 {
		g.zipf = rand.NewZipf(g.rng, w.ZipfS, 1, uint64(len(pop.servers)-1))
	}
	total, acc := 0.0, 0.0
	for _, s := range w.Mix {
		total += s
	}
	for k := opKind(0); k < numKinds; k++ {
		acc += w.Mix[kindNames[k]] / total
		g.cum[k] = acc
	}
	return g
}

func (g *opGen) key() int32 {
	if g.zipf != nil {
		return int32(g.zipf.Uint64())
	}
	return int32(g.rng.Intn(len(g.pop.servers)))
}

// writeKey draws a key from the servers written only through connection
// conn of conns: those whose index is conn modulo conns. A connection's
// requests are applied in the order they are sent, so every server's
// records reach the node in time order and are appended, never inserted
// into the middle of a history.
func (g *opGen) writeKey(conn, conns int) int32 {
	k := int(g.key())
	k += conn - k%conns
	if k >= len(g.pop.servers) {
		k -= conns
	}
	return int32(k)
}

func (g *opGen) kind() opKind {
	u := g.rng.Float64()
	for k := opKind(0); k < numKinds; k++ {
		if u < g.cum[k] {
			return k
		}
	}
	return numKinds - 1
}

// record generates the next record for server i. Only the generator
// goroutine calls it, before the step runs, so next needs no lock.
func (g *opGen) record(i int32) feedback.Feedback {
	m := g.pop.servers[i]
	r := feedback.Negative
	if g.rng.Float64() < m.p {
		r = feedback.Positive
	}
	f := feedback.Feedback{
		Time:   time.Unix(m.next, 0).UTC(),
		Server: m.id,
		Client: feedback.EntityID("live-" + strconv.Itoa(g.rng.Intn(200))),
		Rating: r,
	}
	m.next++
	return f
}

// ops builds the requests for the given due times, sent round-robin over
// conns connections.
func (g *opGen) ops(due []time.Duration, conns int) []op {
	out := make([]op, len(due))
	for i, d := range due {
		out[i] = g.op(g.kind(), d, i%conns, conns)
	}
	return out
}

// op builds one request of the given type, sent on connection conn.
func (g *opGen) op(kind opKind, due time.Duration, conn, conns int) op {
	o := op{kind: kind, due: due, conn: conn}
	switch kind {
	case opAssess:
		o.servers = []int32{g.key()}
	case opAssessBatch:
		o.servers = make([]int32, g.w.AssessBatch)
		for j := range o.servers {
			o.servers[j] = g.key()
		}
	case opSubmit:
		o.servers = []int32{g.writeKey(conn, conns)}
		o.recs = []feedback.Feedback{g.record(o.servers[0])}
	case opSubmitBatch:
		lo, hi := g.w.SubmitBatch[0], g.w.SubmitBatch[1]
		n := lo + g.rng.Intn(hi-lo+1)
		o.servers = make([]int32, n)
		o.recs = make([]feedback.Feedback, n)
		for j := range o.recs {
			o.servers[j] = g.writeKey(conn, conns)
			o.recs[j] = g.record(o.servers[j])
		}
	}
	return o
}
