package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchConfig is workloads.json: the fixed parameters of every workload.
type benchConfig struct {
	// P99LimitMs is the latency limit every rate step is judged against.
	P99LimitMs float64 `json:"p99_limit_ms"`
	// Threshold is the trust threshold sent with every assess request.
	Threshold float64              `json:"threshold"`
	Workloads map[string]*workload `json:"workloads"`
	// Layers maps per-layer metrics to the end-to-end metrics and workloads
	// they should move; a traced run prints the entries for its workload.
	Layers []layerMap `json:"layers"`
}

// layerMap is one entry of the layer-to-end-to-end map.
type layerMap struct {
	Layer   string   `json:"layer"`
	Metrics []string `json:"metrics"`
	Moves   []string `json:"moves"`
	On      []string `json:"on"`
	Note    string   `json:"note,omitempty"`
}

// workload is one traffic mix against one trustd deployment.
type workload struct {
	Why string `json:"why"`
	// Nodes is the trustd node count (1, or 3 for a static cluster), and
	// EntryNodes how many of them the generator sends to.
	Nodes      int `json:"nodes"`
	EntryNodes int `json:"entry_nodes"`
	// MemBudget is passed as -mem-budget (empty: none).
	MemBudget string `json:"mem_budget,omitempty"`

	// Servers is the population size. History lengths fall with
	// popularity rank: len(rank) = max(HistoryMin, HistoryMax/(rank+1)^HistoryDecay).
	Servers      int     `json:"servers"`
	HistoryMax   int     `json:"history_max"`
	HistoryMin   int     `json:"history_min"`
	HistoryDecay float64 `json:"history_decay"`

	// Mix maps request types to their share of the requests. Keys are Zipf
	// distributed with exponent ZipfS over popularity rank, or uniform when
	// ZipfS is 0.
	Mix         map[string]float64 `json:"mix"`
	ZipfS       float64            `json:"zipf_s"`
	AssessBatch int                `json:"assess_batch"`
	SubmitBatch [2]int             `json:"submit_batch"`

	// Ladder is the ascending list of rates swept for the sustained rate;
	// ReferenceRate is the rate latency and cost are reported at.
	Ladder        []float64 `json:"ladder_ops_per_s"`
	ReferenceRate float64   `json:"reference_ops_per_s"`

	// Setups is how many times an untraced run sets up from scratch
	// before its timed steps; setup_s is the median over every set-up of
	// the run, those FreshProbes makes included.
	Setups int `json:"setups"`
	// FreshProbes sets the nodes up from scratch before every ladder step,
	// so each step starts from the seeded state whatever earlier steps
	// wrote: for a write-heavy mix whose state would otherwise grow with
	// the sweep.
	FreshProbes bool `json:"fresh_probes,omitempty"`
	// WarmServers are assessed before the first timed request (the hottest
	// ranks, or an even spread).
	WarmServers int `json:"warm_servers"`
}

const (
	// adversaryShare of every population are adversaries (hibernating,
	// periodic and collusion in turn); the rest are honest with a
	// Bernoulli p drawn per server.
	adversaryShare = 0.1
	// referenceShare of the timed seconds run at the reference rate; the
	// ladder sweep gets the rest.
	referenceShare = 0.2
	// sweepRounds is how many times the sweep steps through the ladder;
	// its seconds are split evenly over its steps.
	sweepRounds = 2
	// gateHonest is the size of the seeded sample of honest servers the
	// correctness gate checks besides every adversary.
	gateHonest = 300
)

func loadConfig(path string) (*benchConfig, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg benchConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for name, w := range cfg.Workloads {
		if err := w.validate(); err != nil {
			return nil, fmt.Errorf("%s: workload %s: %w", path, name, err)
		}
	}
	return &cfg, nil
}

func (w *workload) validate() error {
	switch {
	case w.Nodes < 1 || w.EntryNodes < 1 || w.EntryNodes > w.Nodes:
		return fmt.Errorf("bad node counts %d/%d", w.EntryNodes, w.Nodes)
	case w.Servers < 1 || w.HistoryMin < 1 || w.HistoryMax < w.HistoryMin:
		return fmt.Errorf("bad population size")
	case len(w.Ladder) == 0 || !sort.Float64sAreSorted(w.Ladder) || w.ReferenceRate <= 0:
		return fmt.Errorf("bad rate ladder")
	case w.Setups < 1:
		return fmt.Errorf("setups must be at least 1")
	}
	total := 0.0
	for k, share := range w.Mix {
		if _, ok := kindOf(k); !ok || share < 0 {
			return fmt.Errorf("bad mix entry %q", k)
		}
		total += share
	}
	if total <= 0 {
		return fmt.Errorf("empty mix")
	}
	// Batch sizes are needed even for a type the mix lacks: the traced run
	// sends a few requests of every type.
	if w.AssessBatch < 1 {
		return fmt.Errorf("assess_batch must be at least 1")
	}
	if w.SubmitBatch[0] < 1 || w.SubmitBatch[1] < w.SubmitBatch[0] {
		return fmt.Errorf("submit_batch must be [min, max]")
	}
	return nil
}

func kindOf(name string) (opKind, bool) {
	for k, n := range kindNames {
		if n == name {
			return opKind(k), true
		}
	}
	return 0, false
}
