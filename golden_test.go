package mcfs_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"mcfs"
)

// goldenInstances are small instances over the WMA code paths: city
// presets with every node a candidate (the Table IV shape), sampled
// candidates with uniform and mixed capacities, clustered customers and
// a sparse network near the percolation threshold. Each solves in
// milliseconds yet runs 20–95 WMA iterations, so the set-cover pass's
// tie-break order is exercised across many passes.
func goldenInstances(t *testing.T) map[string]*mcfs.Instance {
	t.Helper()
	city := func(name string, scale float64, seed int64) (*mcfs.Graph, []int32) {
		p, err := mcfs.CityPreset(name, scale, seed)
		if err != nil {
			t.Fatal(err)
		}
		g, err := mcfs.GenerateCity(p)
		if err != nil {
			t.Fatal(err)
		}
		return g, mcfs.LargestComponent(g)
	}
	synth := func(cfg mcfs.SyntheticConfig) (*mcfs.Graph, []int32) {
		g, err := mcfs.GenerateSynthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g, mcfs.LargestComponent(g)
	}
	out := make(map[string]*mcfs.Instance)

	g, pool := city("aalborg", 0.02, 1)
	rng := rand.New(rand.NewSource(2))
	out["aalborg"] = &mcfs.Instance{G: g, Customers: mcfs.SampleCustomersFrom(pool, 100, rng),
		Facilities: mcfs.NodesFacilities(pool, mcfs.UniformCapacity(8)), K: 25}

	g, pool = city("copenhagen", 0.004, 3)
	rng = rand.New(rand.NewSource(4))
	out["copenhagen"] = &mcfs.Instance{G: g, Customers: mcfs.SampleCustomersFrom(pool, 100, rng),
		Facilities: mcfs.NodesFacilities(pool, mcfs.RandomCapacity(2, 10, rng)), K: 20}

	g, pool = city("lasvegas", 0.003, 5)
	rng = rand.New(rand.NewSource(6))
	out["lasvegas"] = &mcfs.Instance{G: g, Customers: mcfs.SampleCustomersFrom(pool, 80, rng),
		Facilities: mcfs.SampleFacilitiesFrom(pool, 200, rng, mcfs.UniformCapacity(10)), K: 12}

	g, pool = synth(mcfs.SyntheticConfig{N: 600, Alpha: 2.5, Seed: 7})
	rng = rand.New(rand.NewSource(8))
	out["uniform"] = &mcfs.Instance{G: g, Customers: mcfs.SampleCustomersFrom(pool, 60, rng),
		Facilities: mcfs.SampleFacilitiesFrom(pool, 120, rng, mcfs.UniformCapacity(10)), K: 12}

	g, pool = synth(mcfs.SyntheticConfig{N: 500, Clusters: 5, Alpha: 2, Seed: 9})
	rng = rand.New(rand.NewSource(10))
	out["clustered"] = &mcfs.Instance{G: g, Customers: mcfs.SampleCustomersFrom(pool, 80, rng),
		Facilities: mcfs.SampleFacilitiesFrom(pool, 100, rng, mcfs.RandomCapacity(3, 12, rng)), K: 15}

	g, pool = synth(mcfs.SyntheticConfig{N: 400, Alpha: 1.3, Seed: 11})
	rng = rand.New(rand.NewSource(12))
	out["sparse"] = &mcfs.Instance{G: g, Customers: mcfs.SampleCustomersFrom(pool, 50, rng),
		Facilities: mcfs.SampleFacilitiesFrom(pool, 90, rng, mcfs.UniformCapacity(9)), K: 6}
	return out
}

// goldenSolutions pins every variant's output on goldenInstances: the
// objective and a SHA-256 over the selection (in returned order) and the
// assignment. Any change to WMA's trajectory — iteration order, tie
// breaks, the set-cover pass — changes a digest; a deliberate trajectory
// change re-records the table and says so.
var goldenSolutions = map[string]struct {
	objective int64
	digest    string
}{
	"aalborg/arbitrary-tie":    {14350, "57e351438566dab6d08ee1ba424d75bf1e5a8db99b76fd142bbd46ea37ed616d"},
	"aalborg/naive":            {13794, "0f48b0bf8d2c658702c9cbc9eca1147e4c8f164f67934c32d1542f9ae3eaa5e6"},
	"aalborg/raise-all":        {17862, "8bc1c6b93f8cc71de774cca4eb5a83eb394adf87fc3da0554046c7ebb6381dae"},
	"aalborg/wma":              {13794, "0f48b0bf8d2c658702c9cbc9eca1147e4c8f164f67934c32d1542f9ae3eaa5e6"},
	"clustered/arbitrary-tie":  {660347, "04baea87aa56fffe7f1d4d7c3f70b38e89fdea00d8dd20653fd042a86be9b7f2"},
	"clustered/naive":          {705414, "4de4cd10ba3cdf29055dbb8e86f663fc918713fd36854497c25b97dfff004578"},
	"clustered/raise-all":      {741465, "31f8e325325bf1d8a0a47d0b4cd8646d41d34dc1de8ffa0563e2f3dbc7f97279"},
	"clustered/wma":            {662561, "1dd391266efb619bec7f2a1043221127748c7d4cabbef2c40f3a426f124fb08f"},
	"copenhagen/arbitrary-tie": {15311, "5ffb5b0b5743e0ec8564de8edb9a71bc317c58d8637be5aace9d22a6297be05a"},
	"copenhagen/naive":         {16123, "7838be8cb695cdc21688147bee837caa719dcc2318cf2e0a435f4ec8d988ba1c"},
	"copenhagen/raise-all":     {20848, "9034b18c04696411a7aa338f8cbffc0b8f1d33a8aa53bfd1636a6813df217609"},
	"copenhagen/wma":           {15099, "36e6945899430f482fa85a09f21fef557f74bc2256803dcb3fbfa70545129d55"},
	"lasvegas/arbitrary-tie":   {25638, "44ffb4bc76ea4ef876618cea8c3d5511173be0a0a2aefb0a578a7701cccbe237"},
	"lasvegas/naive":           {25096, "742faabae79b835019af2e5a7d5ca64743323d207b2491057e91d51e0d6bf55d"},
	"lasvegas/raise-all":       {30876, "a2a6961265cac089bac608d7c16904c9d08e3f8737242cc34258d6c51fa8af95"},
	"lasvegas/wma":             {25096, "742faabae79b835019af2e5a7d5ca64743323d207b2491057e91d51e0d6bf55d"},
	"sparse/arbitrary-tie":     {1137314, "04b6c08a7045a39307184232a0775e4478056b38818d36370f1bcce1223951ae"},
	"sparse/naive":             {1204400, "61f62b165426f9c25a592010437b244a9c6b52beacbd61ebaf12e5e9498c8352"},
	"sparse/raise-all":         {1511524, "ce58928d76a96ce3e8a8dcbfc7d524bc7d6029fef491513c9e9669f572369ee3"},
	"sparse/wma":               {1143284, "4793517d4328de7b133d2ac60a4bba5d6169fcb6995c61f9ac9aaaafe29c0447"},
	"uniform/arbitrary-tie":    {557998, "8d367cad547ac88c0b5c033be66ebed58a81cabfb953f6d44a223843f7ce352f"},
	"uniform/naive":            {560485, "d1011320d8226497226bda59d95058ce9f43b89f8f9b564fb33d5a8b21e14ab1"},
	"uniform/raise-all":        {646917, "155944041fc31b7e7bd5bb4c34480d9ca88f1a3a1ba8944f5a73bc4bff34ce53"},
	"uniform/wma":              {560485, "d1011320d8226497226bda59d95058ce9f43b89f8f9b564fb33d5a8b21e14ab1"},
}

func TestGoldenSolutionDigests(t *testing.T) {
	variants := []struct {
		name string
		run  func(*mcfs.Instance) (*mcfs.Solution, error)
	}{
		{"wma", func(inst *mcfs.Instance) (*mcfs.Solution, error) { return mcfs.Solve(inst) }},
		{"arbitrary-tie", func(inst *mcfs.Instance) (*mcfs.Solution, error) {
			return mcfs.Solve(inst, mcfs.WithArbitraryTieBreak())
		}},
		{"raise-all", func(inst *mcfs.Instance) (*mcfs.Solution, error) {
			return mcfs.Solve(inst, mcfs.WithRaiseAllDemands())
		}},
		{"naive", func(inst *mcfs.Instance) (*mcfs.Solution, error) {
			return mcfs.SolveNaive(inst, mcfs.WithSeed(13))
		}},
	}
	for name, inst := range goldenInstances(t) {
		for _, v := range variants {
			key := name + "/" + v.name
			sol, err := v.run(inst)
			if err != nil {
				t.Errorf("%s: %v", key, err)
				continue
			}
			if _, err := inst.CheckSolution(sol); err != nil {
				t.Errorf("%s: invalid solution: %v", key, err)
				continue
			}
			sum := sha256.Sum256([]byte(fmt.Sprint(sol.Selected, sol.Assignment)))
			digest := hex.EncodeToString(sum[:])
			want, ok := goldenSolutions[key]
			if !ok || sol.Objective != want.objective || digest != want.digest {
				t.Errorf("%s: got %q: {%d, %q}, want %+v (recorded %v)", key, key, sol.Objective, digest, want, ok)
			}
		}
	}
}
