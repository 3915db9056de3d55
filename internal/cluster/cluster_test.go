// Engine-level tests of the cluster layer: placement policies, drain
// migration, and the determinism contract. These drive real engines (the
// external test package may import pie) because placement decisions depend
// on live controller state — outstanding work, export registries — that
// only a full serving stack produces.
package cluster_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"

	"pie"
	"pie/apps"
	"pie/internal/cluster"
)

func newEngine(t *testing.T, cfg pie.Config) *pie.Engine {
	t.Helper()
	cfg.Mode = pie.ModeTiming
	e := pie.New(cfg)
	e.MustRegister(apps.All()...)
	return e
}

func completionParams(maxTokens int, extra string) string {
	p := fmt.Sprintf(`{"prompt":"cluster test prompt","max_tokens":%d`, maxTokens)
	if extra != "" {
		p += "," + extra
	}
	return p + "}"
}

// holdsExport reports whether r's registry holds a KV export named name.
func holdsExport(r *cluster.Replica, name string) bool {
	_, ok := r.Ctl.ExportFaultIn(name)
	return ok
}

func placements(e *pie.Engine) []int {
	var out []int
	for _, r := range e.Cluster().Replicas() {
		out = append(out, r.Placements)
	}
	return out
}

func TestParsePlacement(t *testing.T) {
	for in, want := range map[string]cluster.PlacementPolicy{
		"rr": cluster.PlaceRoundRobin, "round-robin": cluster.PlaceRoundRobin,
		"least": cluster.PlaceLeastLoaded, "least-outstanding-tokens": cluster.PlaceLeastLoaded,
		"kv-affinity": cluster.PlaceKVAffinity, "affinity": cluster.PlaceKVAffinity,
		"program-affinity": cluster.PlaceProgramAffinity, "program": cluster.PlaceProgramAffinity,
	} {
		got, err := cluster.ParsePlacement(in)
		if err != nil || got != want {
			t.Fatalf("ParsePlacement(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := cluster.ParsePlacement("bogus"); err == nil {
		t.Fatal("ParsePlacement(bogus) succeeded")
	}
	for _, p := range []cluster.PlacementPolicy{
		cluster.PlaceRoundRobin, cluster.PlaceLeastLoaded, cluster.PlaceKVAffinity,
		cluster.PlaceProgramAffinity,
	} {
		if p.String() == "unknown" {
			t.Fatalf("policy %d has no name", p)
		}
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	e := newEngine(t, pie.Config{Seed: 11, Replicas: 3, Placement: pie.PlaceRoundRobin})
	err := e.RunClient(func() {
		for i := 0; i < 6; i++ {
			if _, err := e.LaunchAndWait(pie.Spec("text_completion", completionParams(2, ""))); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	got := placements(e)
	for i, n := range got {
		if n != 2 {
			t.Fatalf("replica %d placements = %v, want [2 2 2]", i, got)
		}
	}
}

func TestLeastLoadedPlacementBalances(t *testing.T) {
	e := newEngine(t, pie.Config{Seed: 11, Replicas: 2, Placement: pie.PlaceLeastLoaded})
	err := e.RunClient(func() {
		var hs []*pie.Handle
		for i := 0; i < 4; i++ {
			h, err := e.Launch(pie.Spec("text_completion", completionParams(32, "")))
			if err != nil {
				panic(err)
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			if err := h.Wait(); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	got := placements(e)
	if got[0]+got[1] != 4 || got[0] == 0 || got[1] == 0 {
		t.Fatalf("placements = %v, want 4 split across both replicas", got)
	}
}

func TestKVAffinityRoutesToExportHolder(t *testing.T) {
	e := newEngine(t, pie.Config{Seed: 11, Replicas: 4, Placement: pie.PlaceKVAffinity})
	prefixParams := func(key string, task int) string {
		b, _ := json.Marshal(apps.PrefixCachingParams{
			SharedPrefix: "a long shared prefix, repeated enough to fill a KV page or two; " +
				"the router should pin every request that names it to one replica. key=" + key,
			Prompt:    fmt.Sprintf("q%d", task),
			MaxTokens: 2,
			CacheKey:  key,
		})
		return string(b)
	}
	err := e.RunClient(func() {
		for task := 0; task < 3; task++ {
			if _, err := e.LaunchAndWait(pie.Spec("prefix_caching", prefixParams("aff:key-a", task))); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every task for the key must land on one replica, and exactly that
	// replica holds the export.
	holders, placed := 0, 0
	for _, r := range e.Cluster().Replicas() {
		if holdsExport(r, "aff:key-a") {
			holders++
			placed = r.Placements
		} else if r.Placements != 0 {
			t.Fatalf("replica %d got placements without holding the key", r.ID)
		}
	}
	if holders != 1 || placed != 3 {
		t.Fatalf("holders = %d, placements on holder = %d; want 1 and 3", holders, placed)
	}
}

func TestAffinityHintRoutesPlainLaunches(t *testing.T) {
	// A launch with only an "affinity" hint (no cache_key, no export yet)
	// hash-sticks: same hint, same replica, every time.
	e := newEngine(t, pie.Config{Seed: 11, Replicas: 4, Placement: pie.PlaceKVAffinity})
	err := e.RunClient(func() {
		for i := 0; i < 4; i++ {
			if _, err := e.LaunchAndWait(pie.Spec("text_completion",
				completionParams(2, `"affinity":"tenant-42"`))); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	nonZero := 0
	for _, n := range placements(e) {
		if n > 0 {
			nonZero++
			if n != 4 {
				t.Fatalf("sticky replica got %d placements, want all 4", n)
			}
		}
	}
	if nonZero != 1 {
		t.Fatalf("%d replicas got placements, want exactly 1 (hash-stick)", nonZero)
	}
}

// TestSameSeedByteIdenticalReplicaStats pins the determinism contract:
// identical seeds produce byte-identical per-replica stats documents.
func TestSameSeedByteIdenticalReplicaStats(t *testing.T) {
	run := func() []byte {
		e := newEngine(t, pie.Config{Seed: 33, Replicas: 3, Placement: pie.PlaceLeastLoaded})
		err := e.RunClient(func() {
			var hs []*pie.Handle
			for i := 0; i < 9; i++ {
				h, err := e.Launch(pie.Spec("text_completion", completionParams(8, "")))
				if err != nil {
					panic(err)
				}
				hs = append(hs, h)
			}
			for _, h := range hs {
				if err := h.Wait(); err != nil {
					panic(err)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(e.ReplicaStats())
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("same-seed replica stats differ:\n%s\n%s", a, b)
	}
}

// TestDrainMigratesExports: when a drain completes, the drained replica's
// KV exports move to a surviving replica, so cached context outlives the
// deactivation and kv-affinity keeps finding it on a placeable replica.
func TestDrainMigratesExports(t *testing.T) {
	// Pick a cache key that hash-sticks to replica 1, the one drained below.
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("drain-key-%d", i)
		h := fnv.New64a()
		h.Write([]byte(key))
		if h.Sum64()%2 == 1 {
			break
		}
	}
	e := newEngine(t, pie.Config{Seed: 5, Replicas: 2, Placement: pie.PlaceKVAffinity})
	params, _ := json.Marshal(apps.PrefixCachingParams{
		SharedPrefix: "a shared prefix long enough to fill at least one KV page when tokenized",
		Prompt:       "q",
		MaxTokens:    2,
		CacheKey:     key,
	})
	cl := e.Cluster()
	err := e.RunClient(func() {
		if _, err := e.LaunchAndWait(pie.Spec("prefix_caching", string(params))); err != nil {
			panic(err)
		}
		r1 := cl.Replicas()[1]
		if !holdsExport(r1, key) {
			t.Error("export did not land on the hash-stuck replica 1")
		}
		if !cl.BeginDrain(r1) {
			t.Error("BeginDrain refused the idle serving replica 1")
		}
		cl.CompleteDrains()
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.DrainDone == 0 {
		t.Fatal("the drain never completed")
	}
	if cl.ExportsMigrated == 0 || cl.PagesMigrated == 0 {
		t.Fatalf("drain moved no exports: migrated=%d pages=%d", cl.ExportsMigrated, cl.PagesMigrated)
	}
	r0, r1 := cl.Replicas()[0], cl.Replicas()[1]
	if !holdsExport(r0, key) {
		t.Fatal("surviving replica does not hold the migrated export")
	}
	if holdsExport(r1, key) {
		t.Fatal("drained replica still holds the export")
	}
	if r1.Active() {
		t.Fatal("drained replica still active")
	}
	if cost, ok := r0.Ctl.ExportFaultIn(key); !ok || cost != 0 {
		t.Fatalf("migrated export fault-in %v (held %v), want every page device-resident", cost, ok)
	}
	// The migrated pages are the only live ones on replica 0.
	if inUse, _ := r0.Ctl.PoolStats("llama-1b"); inUse != cl.PagesMigrated {
		t.Fatalf("replica 0 holds %d pages, want the %d migrated ones", inUse, cl.PagesMigrated)
	}
	if inUse, _ := r1.Ctl.PoolStats("llama-1b"); inUse != 0 {
		t.Fatalf("drained replica still holds %d pages", inUse)
	}
}

// TestProgramAffinityPlacement: program-affinity concentrates each
// program's launches on the replica holding its artifact warm, so a
// cluster pays one upload + JIT per program instead of one per
// (program, replica) pair like round-robin.
func TestProgramAffinityPlacement(t *testing.T) {
	// 3 programs over 4 replicas: coprime cycle lengths, so round-robin
	// genuinely spreads each program across replicas instead of aliasing
	// onto one.
	const replicas, perProgram = 4, 8
	programs := []string{"text_completion", "prefix_caching", "beam"}

	run := func(placement pie.PlacementPolicy) (cold int, spread []int) {
		e := newEngine(t, pie.Config{Seed: 11, Replicas: replicas, Placement: placement})
		err := e.RunClient(func() {
			for i := 0; i < perProgram; i++ {
				for _, prog := range programs {
					h, err := e.Launch(pie.Spec(prog, completionParams(2, "")))
					if err != nil {
						t.Errorf("launch %s: %v", prog, err)
						return
					}
					_ = h.Wait()
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return e.Stats().ColdLaunches, placements(e)
	}

	coldPA, spreadPA := run(pie.PlaceProgramAffinity)
	if coldPA != len(programs) {
		t.Fatalf("program-affinity paid %d cold launches, want %d (one per program)",
			coldPA, len(programs))
	}
	// Hash-stuck programs stay put: total placements must be conserved and
	// every launch of one program lands where its artifact lives.
	total := 0
	for _, n := range spreadPA {
		total += n
	}
	if total != len(programs)*perProgram {
		t.Fatalf("placements %v, want %d total", spreadPA, len(programs)*perProgram)
	}

	coldRR, _ := run(pie.PlaceRoundRobin)
	if coldRR <= coldPA {
		t.Fatalf("round-robin cold launches = %d, want > %d (affinity should win)",
			coldRR, coldPA)
	}

	// Warm-artifact accounting agrees with the ILM's cold count.
	e := newEngine(t, pie.Config{Seed: 11, Replicas: replicas, Placement: pie.PlaceProgramAffinity})
	err := e.RunClient(func() {
		for i := 0; i < 3; i++ {
			if _, err := e.LaunchAndWait(pie.Spec("text_completion", completionParams(2, ""))); err != nil {
				t.Errorf("launch: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.ArtifactMisses != 1 || s.ArtifactHits != 2 {
		t.Fatalf("artifact stats misses=%d hits=%d, want 1/2", s.ArtifactMisses, s.ArtifactHits)
	}
}
