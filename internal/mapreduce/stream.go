package mapreduce

import (
	"sort"
	"sync"

	"heterohadoop/internal/obs"
	"heterohadoop/internal/units"
)

// stream.go is the run's shuffle sink: map tasks publish their
// per-partition sorted runs the moment they finish, and interval-sharded
// collectors file them in task order for the reduce wave. In memory a
// collector only files; under a spill context it also folds resident runs
// to disk whenever they outgrow the spill budget, while the rest of the map
// wave is still running.
//
// Determinism: a partition's output is the stable k-way merge of its runs
// in map-task order (key ties broken by task index). Stable merging is
// associative over contiguous runs, so a collector only ever folds runs
// covering *adjacent* task-index intervals; any such fold schedule yields
// output byte-identical to the one-shot merge, no matter the order runs
// arrive in. To know which intervals are adjacent, every map task publishes
// a run for every partition — empty ones included, as coverage markers. A
// segment-file partition is the same sorted record stream as its resident
// form, so folding changes where bytes live, never which bytes come out.

// taskBatch is one map task's complete shuffle publication: its sorted run
// for every partition, empties included as coverage markers. Handing the
// whole slice over in a single channel send costs one channel operation
// per task instead of one per (task, partition).
type taskBatch struct {
	task int
	runs []partRun
}

// shardOf maps a map-task index onto its collector shard: contiguous,
// near-equal task-index intervals in shard order, so concatenating the
// shards' per-partition runs in shard order lists them in task order — the
// order the stable merge is defined over.
func shardOf(task, nsplits, nshards int) int {
	return task * nshards / nsplits
}

// shuffle routes published map output to nshards collector goroutines, one
// per contiguous task interval (one shard per task slot, capped at the split
// count), each owning one collector per partition. Shards hold no task slot,
// so collecting can never starve the map wave.
type shuffle struct {
	nsplits int
	batches []chan taskBatch
	cols    [][]*collector // [shard][partition]
	errs    [][]error      // first add error per (shard, partition)
	wg      sync.WaitGroup
}

// newShuffle starts the collector shards. pcs are the reduce tasks' phase
// clocks, shared across shards (a phaseClock is a stateless value, so
// concurrent emits are safe). With a spill context, each partition's
// residency budget is split across its shards so their combined resident
// bytes stay bounded by js.budget.
func newShuffle(job Job, pcs []phaseClock, nsplits, par int, js *jobSpill) *shuffle {
	nshards := min(par, nsplits)
	s := &shuffle{
		nsplits: nsplits,
		batches: make([]chan taskBatch, nshards),
		cols:    make([][]*collector, nshards),
		errs:    make([][]error, nshards),
	}
	shardSize := make([]int, nshards)
	for i := 0; i < nsplits; i++ {
		shardSize[shardOf(i, nsplits, nshards)]++
	}
	var budget units.Bytes
	if js != nil {
		budget = js.budget / units.Bytes(nshards)
	}
	s.wg.Add(nshards)
	for sh := 0; sh < nshards; sh++ {
		// Buffered to the shard's interval size: publishers never block, so
		// a map task releases its slot immediately after its one send.
		s.batches[sh] = make(chan taskBatch, shardSize[sh])
		s.cols[sh] = make([]*collector, len(pcs))
		s.errs[sh] = make([]error, len(pcs))
		for p := range pcs {
			s.cols[sh][p] = &collector{
				runs:   make([]mergeRun, 0, shardSize[sh]),
				factor: job.Config.MergeFactor,
				pc:     pcs[p],
				js:     js,
				part:   p,
				shard:  sh,
				budget: budget,
			}
		}
		go func(sh int) {
			defer s.wg.Done()
			for b := range s.batches[sh] {
				for p, col := range s.cols[sh] {
					// An add error poisons only its (shard, partition) pair.
					if s.errs[sh][p] == nil {
						s.errs[sh][p] = col.add(b.task, b.runs[p])
					}
				}
			}
		}(sh)
	}
	return s
}

// publish hands one finished map task's runs to its shard.
func (s *shuffle) publish(task int, runs []partRun) {
	s.batches[shardOf(task, s.nsplits, len(s.batches))] <- taskBatch{task: task, runs: runs}
}

// wait closes the shards' channels once the map wave has drained and blocks
// until every collector has filed (and folded) what it was sent.
func (s *shuffle) wait() {
	for _, ch := range s.batches {
		close(ch)
	}
	s.wg.Wait()
}

// partition gathers partition p's runs across the shards — shard order is
// task order, full interval coverage — with the collectors' pressure-fold
// counters and the first collector error, if any. Only valid after wait.
func (s *shuffle) partition(p int) ([]partRun, Counters, error) {
	runs := make([]partRun, 0, s.nsplits)
	var c Counters
	for sh, cols := range s.cols {
		if err := s.errs[sh][p]; err != nil {
			return nil, c, err
		}
		for _, r := range cols[p].runs {
			runs = append(runs, r.run)
		}
		c.Add(cols[p].folds)
	}
	return runs, c, nil
}

// mergeRun is a sorted run covering the contiguous map-task interval
// [lo, hi] of one partition.
type mergeRun struct {
	lo, hi int
	run    partRun
}

// collector files one partition's runs, for one shard's task interval, as
// they arrive: sorted by task interval, intervals disjoint. With no spill
// context that is all it does — the reduce task's one-shot stable merge in
// task order is the in-memory path. Out of core, resident runs are folded
// to disk segment files whenever their total accounting size crosses the
// spill budget — the reduce side's half of bounded-memory execution.
type collector struct {
	runs   []mergeRun // sorted by lo, intervals disjoint
	factor int
	// pc attributes the collector's pressure folds to its reduce task, as
	// spill-write.
	pc phaseClock

	js    *jobSpill // nil for in-memory runs
	part  int
	shard int // collector shard index, part of pressure-fold file names
	// budget bounds this collector's resident bytes: the partition's spill
	// budget split across its shards.
	budget   units.Bytes
	spillSeq int
	// folds is the pressure-fold accounting (merge passes, spill files),
	// added to the owning reduce task's counters.
	folds Counters
}

// add inserts one task's run at its interval position, then folds resident
// runs to disk if a spill budget is set and they exceed it.
func (c *collector) add(task int, run partRun) error {
	i := sort.Search(len(c.runs), func(i int) bool { return c.runs[i].lo > task })
	c.runs = append(c.runs, mergeRun{})
	copy(c.runs[i+1:], c.runs[i:])
	c.runs[i] = mergeRun{lo: task, hi: task, run: run}
	if c.js == nil {
		return nil
	}
	return c.pressureFold()
}

// pressureFold keeps the collector's resident bytes under the spill
// budget by folding adjacent chains of resident runs into disk segment
// files. Chains are chosen by byte weight so progress is guaranteed
// whenever anything resident remains; a single oversized run is written
// out as-is (no merge pass — the file holds the same single sorted run).
func (c *collector) pressureFold() error {
	for {
		var memBytes units.Bytes
		for i := range c.runs {
			if !c.runs[i].run.isDisk() {
				memBytes += c.runs[i].run.accountBytes()
			}
		}
		if memBytes <= c.budget {
			return nil
		}
		// Heaviest chain of interval-adjacent resident runs, fan-in capped
		// at MergeFactor like every other merge pass.
		bestStart, bestLen := -1, 0
		var bestBytes units.Bytes
		for i := 0; i < len(c.runs); {
			if c.runs[i].run.isDisk() {
				i++
				continue
			}
			j := i
			b := c.runs[i].run.accountBytes()
			for j+1 < len(c.runs) && !c.runs[j+1].run.isDisk() && c.runs[j].hi+1 == c.runs[j+1].lo && j-i+1 < c.factor {
				j++
				b += c.runs[j].run.accountBytes()
			}
			if n := j - i + 1; b > bestBytes || (b == bestBytes && n > bestLen) {
				bestStart, bestLen, bestBytes = i, n, b
			}
			i = j + 1
		}
		if bestStart < 0 || bestBytes == 0 {
			return nil // nothing resident carries bytes; budget unreachable
		}
		if err := c.foldToDisk(bestStart, bestLen); err != nil {
			return err
		}
	}
}

// foldToDisk replaces runs[start : start+n] — one contiguous task interval
// of resident runs — with a single-partition disk run holding their stable
// merge. Folding a single non-empty run is a plain write, not a merge pass.
func (c *collector) foldToDisk(start, n int) error {
	t := c.pc.Start()
	chain := make([][]partRun, n)
	nonEmpty := 0
	for i := range chain {
		chain[i] = []partRun{c.runs[start+i].run}
		if chain[i][0].recs() > 0 {
			nonEmpty++
		}
	}
	sf, _, err := mergeToFile(c.js.colPath(c.part, c.shard, c.spillSeq), chain, &c.folds)
	c.spillSeq++
	if err != nil {
		return err
	}
	if nonEmpty > 1 {
		c.folds.ReduceMergePasses++
	}
	c.pc.EmitIO(obs.PhaseSpillWrite, t, 0, int64(sf.StoredBytes()))
	c.runs[start] = mergeRun{lo: c.runs[start].lo, hi: c.runs[start+n-1].hi, run: diskRun(sf, 0)}
	c.runs = append(c.runs[:start+1], c.runs[start+n:]...)
	return nil
}
