package pie_test

// Determinism regression tests. The batch scheduler used to pick between
// equally-old op classes by iterating a Go map, so equal-`oldest` ties
// depended on map order and two identical-seed runs could batch (and
// therefore time) differently. Ready buckets now break ties on bucket
// creation sequence; these tests pin that contract at the engine level
// (internal/eval's TestExperimentsDeterministic does so for every
// experiment, under the parallel harness too).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pie"
	"pie/apps"
	"pie/internal/trace"
)

// schedulerFingerprint runs a tie-heavy mixed workload and returns every
// observable scheduler statistic formatted as one string, so two runs can
// be compared byte for byte.
func schedulerFingerprint(t *testing.T, seed uint64) string {
	t.Helper()
	e := pie.New(pie.Config{Seed: seed, Mode: pie.ModeTiming})
	e.MustRegister(apps.All()...)
	// Launch a burst of same-op work (equal enqueue times across queues
	// and op classes) plus heterogeneous apps so light ops and forwards
	// contend for dispatch order.
	e.Go("driver", func() {
		var hs []*pie.Handle
		for i := 0; i < 24; i++ {
			params := fmt.Sprintf(`{"prompt":"determinism probe %d","max_tokens":12}`, i%3)
			h, err := e.Launch(pie.Spec("text_completion", params))
			if err != nil {
				t.Errorf("launch %d: %v", i, err)
				return
			}
			hs = append(hs, h)
		}
		for i := 0; i < 4; i++ {
			h, err := e.Launch(pie.Spec("beam", `{"width":3,"steps":6}`))
			if err != nil {
				t.Errorf("beam launch: %v", err)
				return
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			h.Wait()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	st := e.Stats()
	_, _, _, events := e.Clock().Stats()
	return fmt.Sprintf("now=%v stats=%+v events=%d", e.Now(), st, events)
}

// handoffFingerprint runs a disaggregated-pool workload whose sessions
// all migrate prefill -> decode mid-run and returns every observable
// statistic — engine stats (handoff counters included), per-replica
// stats, and every cluster decision record — as one comparable string. The
// cluster's Check must pass when the test ends.
func handoffFingerprint(t *testing.T, seed uint64) string {
	t.Helper()
	e := checked(t, pie.New(pie.Config{
		Seed: seed, Mode: pie.ModeTiming, Replicas: 4,
		Placement: pie.PlaceLeastLoaded, HandoffBudget: 1,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill, Count: 1}, {Role: pie.RoleDecode}},
	}))
	e.MustRegister(apps.All()...)
	var decisions []trace.Decision
	e.Cluster().OnDecision = func(d trace.Decision) { decisions = append(decisions, d) }
	e.Go("driver", func() {
		var hs []*pie.Handle
		for i := 0; i < 12; i++ {
			params := fmt.Sprintf(`{"prompt":"handoff probe %d","max_tokens":%d}`, i%3, 8+4*(i%4))
			h, err := e.Launch(pie.Spec("text_completion", params))
			if err != nil {
				t.Errorf("launch %d: %v", i, err)
				return
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			h.Wait()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	st := e.Stats()
	if st.Handoffs == 0 {
		t.Fatal("disaggregated workload produced no handoffs")
	}
	_, _, _, events := e.Clock().Stats()
	return fmt.Sprintf("now=%v stats=%+v replicas=%+v decisions=%v events=%d",
		e.Now(), st, e.ReplicaStats(), decisions, events)
}

// TestHandoffDeterministic pins the prefill/decode handoff path to the
// determinism contract: a mid-workload KV migration — budget waits, page
// copies, session rebinding — must replay byte-identically same-seed.
func TestHandoffDeterministic(t *testing.T) {
	a := handoffFingerprint(t, 42)
	b := handoffFingerprint(t, 42)
	if a != b {
		t.Fatalf("identical-seed handoff runs diverged:\n run1: %s\n run2: %s", a, b)
	}
}

func TestSchedulerStatsDeterministic(t *testing.T) {
	a := schedulerFingerprint(t, 42)
	b := schedulerFingerprint(t, 42)
	if a != b {
		t.Fatalf("identical-seed runs diverged:\n run1: %s\n run2: %s", a, b)
	}
	if st := schedulerFingerprint(t, 42); st != a {
		t.Fatalf("third identical-seed run diverged:\n run1: %s\n run3: %s", a, st)
	}
}

// mapRange classifies the range statements over a map in one function.
type mapRange struct {
	n     int    // range statements over a map in the function
	class string // "sorted" or "fold"
	// total is, for a fold that picks one item, the comparison in its loop
	// that makes the pick independent of the order; a tally has none.
	total string
}

// mapRanges lists every range over a map in the module's non-test code
// outside benchmark/, keyed by file and enclosing function. There is no
// class for a loop that acts in map order.
var mapRanges = map[string]mapRange{
	"cmd/bench-gate/main.go sortedKeys":                           {1, "sorted", ""},
	"internal/baseline/cache.go (*radixCache).lruLeaf":            {1, "fold", "k < key"},
	"internal/core/artifacts.go (*artifactCache).evictLRU":        {1, "fold", "key < victim"},
	"internal/core/check.go (*Controller).checkRefs":              {2, "fold", ""},
	"internal/core/controller.go (*Controller).DropExports":       {1, "sorted", ""},
	"internal/core/controller.go (*Controller).SortedInstanceIDs": {1, "sorted", ""},
	"internal/core/controller.go (*Controller).newestInstance":    {1, "fold", "inst.ID > newest.ID"},
	"internal/core/handoff.go (*Controller).MigrateExportsTo":     {1, "sorted", ""},
	"internal/fleet/controller.go (PinStatus).LiveVersions":       {1, "sorted", ""},
	"internal/ilm/ilm.go (*ILM).ProgramInfos":                     {1, "sorted", ""},
	"internal/ilm/ilm.go (*ILM).Programs":                         {1, "sorted", ""},
	"internal/ilm/upgrade.go (*ILM).RunningHandles":               {1, "sorted", ""},
	"internal/model/model.go (*Model).AdapterNames":               {1, "sorted", ""},
}

// TestMapRangesAreClassified holds the system to one order. Go randomises
// map iteration, so a loop over a map that acts in that order makes a
// same-seed run differ. Every range over a map in non-test code must be
// listed in mapRanges as sorted (the loop collects keys or values, and
// its function sorts them before use) or fold (the result does not depend
// on the order: a tally, or a max or min whose comparison is total).
func TestMapRangesAreClassified(t *testing.T) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var mod []listedPackage
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("go list output: %v", err)
		}
		exports[p.ImportPath] = p.Export
		if p.Module != nil && p.Module.Main && p.ImportPath != "pie/benchmark" {
			mod = append(mod, p)
		}
	}
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	type site struct {
		at    string // file:line
		total bool   // the loop compares its entry's total
	}
	found := map[string][]site{}
	sorts := map[string]bool{} // functions that call a sort
	for _, p := range mod {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
		if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		for _, f := range files {
			file, _ := filepath.Rel(p.Module.Dir, fset.File(f.Pos()).Name())
			for _, d := range f.Decls {
				key := filepath.ToSlash(file) + " " + funcName(d)
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						if fn, ok := info.Uses[n.Sel].(*types.Func); ok && fn.Pkg() != nil &&
							(fn.Pkg().Path() == "sort" || fn.Pkg().Path() == "slices" && strings.HasPrefix(fn.Name(), "Sort")) {
							sorts[key] = true
						}
					case *ast.RangeStmt:
						if _, ok := info.TypeOf(n.X).Underlying().(*types.Map); ok {
							s := site{at: fmt.Sprintf("%s:%d", filepath.ToSlash(file), fset.Position(n.Pos()).Line)}
							ast.Inspect(n.Body, func(b ast.Node) bool {
								e, ok := b.(*ast.BinaryExpr)
								s.total = s.total || ok && types.ExprString(e) == mapRanges[key].total
								return true
							})
							found[key] = append(found[key], s)
						}
					}
					return true
				})
			}
		}
	}
	total := 0
	for key, sites := range found {
		total += len(sites)
		want, ok := mapRanges[key]
		switch {
		case !ok:
			t.Errorf("%s: %s ranges over a map; list it in mapRanges as sorted or fold, or walk a fixed order", sites[0].at, key)
		case want.n != len(sites):
			t.Errorf("%s: %s ranges over a map %d times; mapRanges lists %d", sites[0].at, key, len(sites), want.n)
		case want.class == "sorted" && !sorts[key]:
			t.Errorf("%s: %s is listed sorted but calls no sort", sites[0].at, key)
		case want.class != "sorted" && want.class != "fold":
			t.Errorf("%s: %s is listed %q; the classes are sorted and fold", sites[0].at, key, want.class)
		}
		for _, s := range sites {
			if ok && want.total != "" && !s.total {
				t.Errorf("%s: %s is listed a fold on %q, which the loop no longer compares", s.at, key, want.total)
			}
		}
	}
	for key := range mapRanges {
		if _, ok := found[key]; !ok {
			t.Errorf("mapRanges lists %s, which no longer ranges over a map", key)
		}
	}
	t.Logf("%d ranges over a map in %d functions", total, len(found))
}

// listedPackage is the part of go list's JSON the map-range check reads.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Module                  *struct {
		Main bool
		Dir  string
	}
}

// funcName names a declaration as mapRanges keys it: "(*T).method",
// "(T).method", "function", or "var" outside any function.
func funcName(d ast.Decl) string {
	fd, ok := d.(*ast.FuncDecl)
	switch {
	case !ok:
		return "var"
	case fd.Recv == nil:
		return fd.Name.Name
	}
	return "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}
