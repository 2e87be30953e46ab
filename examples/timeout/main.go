// Timeout demonstrates deadline-bounded solving: every solver has a
// context-aware variant that polls cooperatively and returns promptly
// when the context fires. Solvers differ in what a cut-short run
// yields — the WMA family holds no feasible solution mid-run and
// returns nil, while the exact solver and the local-search polish hold
// verified incumbents and return the best one found so far (anytime
// behaviour). See "Timeouts & cancellation" in the README and
// DESIGN.md §9.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"mcfs"
)

func main() {
	n, m, l := 8000, 600, 1000
	exactBudget := 2 * time.Second
	if os.Getenv("MCFS_EXAMPLE_QUICK") != "" {
		n, m, l = 2000, 150, 300
		exactBudget = 300 * time.Millisecond
	}
	g, err := mcfs.GenerateSynthetic(mcfs.SyntheticConfig{N: n, Clusters: 12, Alpha: 1.8, Seed: 19})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	pool := mcfs.LargestComponent(g)
	inst := &mcfs.Instance{
		G:          g,
		Customers:  mcfs.SampleCustomersFrom(pool, m, rng),
		Facilities: mcfs.SampleFacilitiesFrom(pool, l, rng, mcfs.UniformCapacity(40)),
		K:          25,
	}
	fmt.Printf("instance: n=%d, m=%d customers, l=%d candidates, k=%d\n\n", g.N(), inst.M(), inst.L(), inst.K)

	// 1. A deadline that cannot be met: WMA returns promptly with
	// context.DeadlineExceeded and no solution (it holds no feasible
	// incumbent until its final assignment completes).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	start := time.Now()
	sol, err := mcfs.SolveCtx(ctx, inst)
	cancel()
	fmt.Printf("WMA under a 5ms deadline: sol=%v err=%v (returned after %s)\n",
		sol != nil, err, time.Since(start).Round(time.Millisecond))
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Fatalf("unexpected error: %v", err)
	}

	// 2. The same deadline as an option — WithTimeBudget is sugar for a
	// context deadline on the heuristics, usable from the legacy API.
	_, err = mcfs.Solve(inst, mcfs.WithTimeBudget(5*time.Millisecond))
	fmt.Printf("WMA with WithTimeBudget(5ms): err=%v\n\n", err)

	// 3. An uncancelled run for reference.
	start = time.Now()
	best, err := mcfs.Solve(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("WMA unbounded: objective %d in %s\n\n", best.Objective, time.Since(start).Round(time.Millisecond))

	// 4. The exact solver as an anytime algorithm: it holds a verified
	// incumbent from its warm start onwards, so a budget expiry still
	// yields a usable (just unproven) solution — errors.Is matches both
	// mcfs.ErrTimeout and context.DeadlineExceeded.
	start = time.Now()
	res, err := mcfs.SolveExact(inst, mcfs.WithTimeBudget(exactBudget))
	switch {
	case err == nil:
		fmt.Printf("exact: proven optimal %d (%d nodes) in %s\n",
			res.Solution.Objective, res.Nodes, time.Since(start).Round(time.Millisecond))
	case errors.Is(err, mcfs.ErrTimeout) && res != nil && res.Solution != nil:
		fmt.Printf("exact: budget hit after %s, best incumbent %d (optimal unproven)\n",
			time.Since(start).Round(time.Millisecond), res.Solution.Objective)
	default:
		fmt.Printf("exact: stopped without an incumbent: %v\n", err)
	}

	// 5. Local search is anytime too: a mid-run deadline keeps the best
	// polish achieved so far, never worse than the input.
	polished, st, err := mcfs.ImproveCtx(context.Background(), inst, best,
		mcfs.WithTimeBudget(50*time.Millisecond))
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Fatal(err)
	}
	cut := ""
	if err != nil {
		cut = " (deadline hit mid-search)"
	}
	fmt.Printf("polish under a 50ms budget: %d -> %d after %d accepted moves%s\n",
		best.Objective, polished.Objective, st.Accepted, cut)
}
