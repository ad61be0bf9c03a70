package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"critlock/internal/core"
	"critlock/internal/graph"
	"critlock/internal/harness"
	"critlock/internal/hazard"
	"critlock/internal/sim"
	"critlock/internal/trace"
	"critlock/internal/workloads"
)

// The sections that replay events — slack and the lock-order graph —
// run over any segment source. These tests hold each to the
// implementation it replaced, kept below as an oracle over the
// in-memory event array: on every workload clasim lists at seeds 1–3,
// and on random simulated programs (FuzzSections), read both from the
// in-memory trace and from a segment directory.

// clasimTrace runs a workload the way `clasim -w name -seed seed` does.
func clasimTrace(t *testing.T, name string, seed int64) *trace.Trace {
	t.Helper()
	spec, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := workloads.Run(sim.New(sim.Config{Contexts: 24, Seed: seed}), spec,
		workloads.Params{Seed: seed, Scale: 1})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	return tr
}

func TestSlackMatchesOracle(t *testing.T) {
	for _, name := range workloads.Names() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/%d", name, seed), func(t *testing.T) {
				checkSlack(t, clasimTrace(t, name, seed))
			})
		}
	}
}

func TestLockOrderMatchesOracle(t *testing.T) {
	for _, name := range workloads.Names() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/%d", name, seed), func(t *testing.T) {
				checkLockOrder(t, clasimTrace(t, name, seed))
			})
		}
	}
}

// FuzzSections runs both differentials on random programs: workers
// that take repeatedly named mutexes exclusively, shared and nested (in
// either order), send on a channel a collector drains, and meet at a
// barrier every round, on few or many contexts, with or without time
// slicing. Interleavings that deadlock are skipped; every trace the
// simulator completes must validate.
func FuzzSections(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, -7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		tr, err := randomProgram(seed)
		if err != nil {
			t.Skip(err)
		}
		if err := trace.Validate(tr); err != nil {
			t.Fatalf("simulated trace does not validate: %v", err)
		}
		checkSlack(t, tr)
		checkLockOrder(t, tr)
	})
}

func randomProgram(seed int64) (*trace.Trace, error) {
	rng := rand.New(rand.NewSource(seed))
	nThreads := 2 + rng.Intn(5)
	nLocks := 1 + rng.Intn(4)
	rounds := 1 + rng.Intn(3)
	ops := 1 + rng.Intn(8)
	cfg := sim.Config{Contexts: 1 + rng.Intn(8), Seed: seed}
	if rng.Intn(3) == 0 {
		cfg.Quantum = trace.Time(50 + rng.Intn(300))
	}
	s := sim.New(cfg)
	locks := make([]harness.Mutex, nLocks)
	for i := range locks {
		locks[i] = s.NewMutex(fmt.Sprint("m", i%2))
	}
	bar := s.NewBarrier("round", nThreads)
	ch := s.NewChan("ch", rng.Intn(3))
	tr, _, err := s.Run(func(p harness.Proc) {
		var kids []harness.Thread
		for w := 0; w < nThreads; w++ {
			kids = append(kids, p.Go(fmt.Sprint("w", w), func(q harness.Proc) {
				r := q.Rand()
				for round := 0; round < rounds; round++ {
					for op := 0; op < ops; op++ {
						m := locks[r.Intn(nLocks)]
						switch r.Intn(4) {
						case 0:
							q.Compute(trace.Time(1 + r.Intn(300)))
						case 1:
							q.Lock(m)
							q.Compute(trace.Time(r.Intn(80)))
							if inner := locks[r.Intn(nLocks)]; inner != m {
								q.Lock(inner)
								q.Compute(trace.Time(r.Intn(40)))
								q.Unlock(inner)
							}
							q.Unlock(m)
						case 2:
							q.RLock(m)
							q.Compute(trace.Time(r.Intn(50)))
							q.RUnlock(m)
						case 3:
							q.Compute(trace.Time(r.Intn(20)))
						}
					}
					q.Send(ch)
					q.BarrierWait(bar)
				}
			}))
		}
		kids = append(kids, p.Go("collector", func(q harness.Proc) {
			for i := 0; i < nThreads*rounds; i++ {
				q.Recv(ch)
			}
		}))
		for _, k := range kids {
			p.Join(k)
		}
	})
	return tr, err
}

// sectionSources are the two sources every check reads: the in-memory
// trace, and a segment directory cut into about eight segments.
func sectionSources(t *testing.T, tr *trace.Trace) map[string]core.SegmentSource {
	return map[string]core.SegmentSource{
		"trace":  core.TraceSegments(tr),
		"segdir": segmented(t, tr, len(tr.Events)/7+1, 4, false),
	}
}

// checkSlack holds Slack over both sources to the oracle.
func checkSlack(t *testing.T, tr *trace.Trace) {
	t.Helper()
	an, err := core.AnalyzeSource(core.TraceSource(tr), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := core.SlackOracle(an, tr)
	for label, src := range sectionSources(t, tr) {
		got, err := an.Slack(src)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: slack differs from the oracle\n got: %+v\nwant: %+v", label, got.Locks, want.Locks)
		}
	}
}

// checkLockOrder holds hazard.LockOrderOf over both sources to the
// oracle.
func checkLockOrder(t *testing.T, tr *trace.Trace) {
	t.Helper()
	want := lockOrderOracle(tr)
	for label, src := range sectionSources(t, tr) {
		lo, err := hazard.LockOrderOf(src)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got := oracleOrder{Cycles: lo.Cycles, Names: lo.CycleNames()}
		for _, e := range lo.Edges {
			got.Edges = append(got.Edges, oracleEdge{e.From, e.To, e.FromName, e.ToName, e.Count})
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: lock order differs from the oracle\n got: %+v\nwant: %+v", label, got, want)
		}
	}
}

type oracleEdge struct {
	From, To         trace.ObjID
	FromName, ToName string
	Count            int
}

type oracleOrder struct {
	Edges  []oracleEdge
	Cycles [][]trace.ObjID
	Names  [][]string
}

// lockOrderOracle is the dedicated lock-order builder that the view of
// the hazard fold's edge aggregate replaced, kept as its test oracle:
// one pass over the event array tracking each thread's held locks, an
// edge from every held lock to each newly obtained one.
func lockOrderOracle(tr *trace.Trace) oracleOrder {
	type key struct{ from, to trace.ObjID }
	counts := map[key]int{}
	held := map[trace.ThreadID][]trace.ObjID{}
	for _, e := range tr.Events {
		switch e.Kind {
		case trace.EvLockObtain:
			for _, h := range held[e.Thread] {
				if h != e.Obj {
					counts[key{h, e.Obj}]++
				}
			}
			held[e.Thread] = append(held[e.Thread], e.Obj)
		case trace.EvLockRelease:
			hs := held[e.Thread]
			for i := len(hs) - 1; i >= 0; i-- {
				if hs[i] == e.Obj {
					held[e.Thread] = append(hs[:i], hs[i+1:]...)
					break
				}
			}
		}
	}

	var lo oracleOrder
	for k, n := range counts {
		lo.Edges = append(lo.Edges, oracleEdge{k.from, k.to, tr.ObjName(k.from), tr.ObjName(k.to), n})
	}
	before := func(a, b trace.ObjID) bool {
		if tr.ObjName(a) != tr.ObjName(b) {
			return tr.ObjName(a) < tr.ObjName(b)
		}
		return a < b
	}
	sort.Slice(lo.Edges, func(i, j int) bool {
		a, b := lo.Edges[i], lo.Edges[j]
		if a.FromName != b.FromName {
			return a.FromName < b.FromName
		}
		if a.ToName != b.ToName {
			return a.ToName < b.ToName
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	adj := map[trace.ObjID][]trace.ObjID{}
	var nodes []trace.ObjID
	for _, e := range lo.Edges {
		if adj[e.From] == nil {
			nodes = append(nodes, e.From)
		}
		adj[e.From] = append(adj[e.From], e.To)
	}
	sort.Slice(nodes, func(i, j int) bool { return before(nodes[i], nodes[j]) })
	for _, comp := range graph.SCC(nodes, adj) {
		if len(comp) > 1 {
			sort.Slice(comp, func(i, j int) bool { return before(comp[i], comp[j]) })
			lo.Cycles = append(lo.Cycles, comp)
		}
	}
	sort.Slice(lo.Cycles, func(i, j int) bool {
		return fmt.Sprint(lo.Cycles[i]) < fmt.Sprint(lo.Cycles[j])
	})
	lo.Names = make([][]string, len(lo.Cycles))
	for i, cyc := range lo.Cycles {
		for _, id := range cyc {
			lo.Names[i] = append(lo.Names[i], tr.ObjName(id))
		}
	}
	return lo
}
