package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's outcome: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// absent lists metrics the program did not report (a /metricz field
	// this trustd lacks, or a layer the workload never reaches); they are
	// printed as 0.
	absent []string
	gate   []string
}

func newResult() result {
	return result{Metrics: map[string]metric{}}
}

func (r *result) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.absent = append(r.absent, name)
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// addOpt adds a metric that may be absent.
func (r *result) addOpt(name string, v float64, ok bool, unit string) {
	if !ok {
		v = math.NaN()
	}
	r.add(name, v, unit)
}

// addLatency adds <prefix>_p50_ms over the requests keep selects and
// prints their p99 with its sample count. The p99 at the reference rate
// is reported, not bounded: on a small shared host it moves with outside
// load by more than any bound a later change could be held to, while the
// sustained rate carries the p99 limit.
func (r *result) addLatency(prefix string, step stepResult, keep func(opKind) bool) {
	ms := step.latencies(keep)
	r.add(prefix+"_p50_ms", timeoutIfFailed(quantile(ms, 0.5)), "ms")
	fmt.Printf("%s latency: p50 %.3f ms, p99 %.3f ms over %d samples\n",
		prefix, quantile(ms, 0.5), quantile(ms, 0.99), len(ms))
}

// timeoutIfFailed maps the +Inf latency of a failed request to the client
// timeout, which is over any limit.
func timeoutIfFailed(ms float64) float64 {
	if math.IsInf(ms, 1) {
		return float64(loadTimeout.Milliseconds())
	}
	return ms
}

// tailQuantile is 0.99, or the highest quantile with ten of n samples
// beyond it when n < 1000.
func tailQuantile(n int) float64 {
	return max(0.5, min(0.99, 1-10/float64(max(n, 1))))
}

// setGate records the correctness gate's outcome; missingAfterRestart is
// negative when the run made no restart check.
func (r *result) setGate(g gateResult, missing, missingAfterRestart int) {
	r.Correct = g.mismatches == 0 && missing == 0 && missingAfterRestart <= 0 && g.checked > 0
	r.gate = []string{
		fmt.Sprintf("verdicts checked: %d (%d suspicious)", g.checked, g.suspicious),
		fmt.Sprintf("verdict_mismatches: %d", g.mismatches),
		fmt.Sprintf("missing_acked_records: %d", missing),
	}
	if missingAfterRestart >= 0 {
		r.gate = append(r.gate, fmt.Sprintf("missing_acked_records after restart: %d", missingAfterRestart))
	}
}

// print writes the human-readable report and then the result line.
func (r *result) print() {
	for _, line := range r.gate {
		fmt.Println("gate:", line)
	}
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Printf("metric %-44s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if len(r.absent) > 0 {
		fmt.Printf("absent (reported as 0): %v\n", r.absent)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scoreboard: encode result:", err)
		return
	}
	fmt.Println(string(raw))
}
