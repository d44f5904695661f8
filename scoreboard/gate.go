package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"

	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/repclient"
	"honestplayer/internal/stats"
	"honestplayer/internal/store"
	"honestplayer/internal/trust"
	"honestplayer/internal/wire"
)

// oracleConfig describes the reference assessor. trustd's default is the
// multi tester with window 10, the average trust function and calibrator
// seed 1.
type oracleConfig struct {
	Window int
	Seed   uint64
}

var trustdDefault = oracleConfig{Window: 10, Seed: 1}

// newOracle builds the paper's reference TwoPhase assessor for cfg; the
// calibrator is returned so its cell count can be reported.
func newOracle(cfg oracleConfig) (*core.TwoPhase, *stats.Calibrator, error) {
	cal := stats.NewCalibrator(stats.CalibrationConfig{Seed: cfg.Seed}, 0)
	tester, err := behavior.NewMulti(behavior.Config{WindowSize: cfg.Window, Calibrator: cal})
	if err != nil {
		return nil, nil, err
	}
	tp, err := core.NewTwoPhase(tester, trust.Average{})
	return tp, cal, err
}

// parallel runs fn(i) for i in [0, n) on a fixed set of workers and
// returns the first error.
func parallel(n, workers int, fn func(i int) error) error {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		ferr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := ferr != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if ferr == nil {
						ferr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return ferr
}

// fetchHistories reads every server's full history, each from the client
// source picks for it (its owner on a cluster).
func fetchHistories(ctx context.Context, ids []feedback.EntityID, source func(i int) *repclient.Client) ([][]feedback.Feedback, error) {
	out := make([][]feedback.Feedback, len(ids))
	err := parallel(len(ids), 16, func(i int) error {
		recs, total, err := source(i).HistoryCtx(ctx, ids[i], 0)
		if err != nil {
			return fmt.Errorf("history %s: %w", ids[i], err)
		}
		if total != len(recs) {
			return fmt.Errorf("history %s: %d of %d records returned", ids[i], len(recs), total)
		}
		out[i] = recs
		return nil
	})
	return out, err
}

// missingAcked counts acknowledged records absent from the served
// histories.
func missingAcked(pop *population, histories [][]feedback.Feedback) int {
	pop.mu.Lock()
	defer pop.mu.Unlock()
	missing := 0
	for i, m := range pop.servers {
		have := make(map[store.Hash]struct{}, len(histories[i]))
		for _, f := range histories[i] {
			have[store.HashOf(f)] = struct{}{}
		}
		for _, f := range m.acked {
			if _, ok := have[store.HashOf(f)]; !ok {
				missing++
			}
		}
	}
	return missing
}

// gateResult is the correctness gate's outcome.
type gateResult struct {
	checked    int
	mismatches int
	suspicious int
	// served holds the served answers of the checked servers, by
	// population index.
	served map[int]wire.AssessResponse
}

// checkVerdicts asks the node (via entry) to assess every server in sample
// and compares each answer with the oracle's TwoPhase.Accept on the
// history the node returned for it.
func checkVerdicts(ctx context.Context, entry func(i int) *repclient.Client, tp *core.TwoPhase, threshold float64,
	ids []feedback.EntityID, histories [][]feedback.Feedback, sample []int) (gateResult, error) {
	res := gateResult{served: make(map[int]wire.AssessResponse, len(sample))}
	var mu sync.Mutex
	err := parallel(len(sample), runtime.GOMAXPROCS(0)*2, func(j int) error {
		i := sample[j]
		resp, err := entry(i).AssessCtx(ctx, ids[i], threshold)
		if err != nil {
			return fmt.Errorf("assess %s: %w", ids[i], err)
		}
		h, err := feedback.NewHistoryFromRecords(ids[i], histories[i])
		if err != nil {
			return fmt.Errorf("history %s: %w", ids[i], err)
		}
		accept, want, err := tp.Accept(h, threshold)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", ids[i], err)
		}
		mu.Lock()
		defer mu.Unlock()
		res.checked++
		if want.Suspicious {
			res.suspicious++
		}
		if resp.Accept != accept || !reflect.DeepEqual(resp.Assessment, want) {
			res.mismatches++
		}
		res.served[i] = resp
		return nil
	})
	return res, err
}
