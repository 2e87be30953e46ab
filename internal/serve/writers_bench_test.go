package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcfs"
)

// tableIV builds the Table IV configuration at the perf-suite scale, as
// _perfbench does: the aalborg preset at 5% (2548 nodes), m = 512
// customers, k = 51, capacity 20 on every node of the largest component.
// It returns the instance and that component, which arrivals draw from.
func tableIV(b *testing.B) (*mcfs.Instance, []int32) {
	b.Helper()
	p, err := mcfs.CityPreset("aalborg", 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := mcfs.GenerateCity(p)
	if err != nil {
		b.Fatal(err)
	}
	pool := mcfs.LargestComponent(g)
	rng := rand.New(rand.NewSource(12))
	return &mcfs.Instance{
		G:          g,
		Customers:  mcfs.SampleCustomersFrom(pool, 512, rng),
		Facilities: mcfs.NodesFacilities(pool, mcfs.UniformCapacity(20)),
		K:          51,
	}, pool
}

// BenchmarkServeWriters measures write throughput and coalescing with 1,
// 4 and 16 concurrent clients. Each client sends arrival-then-departure
// pairs through Handler() on the Table IV instance, so the population
// stays near 512; b.N counts pairs across all clients. It reports
// writes/s (wall clock) and ops/batch, the mean number of writes one
// publish covered.
func BenchmarkServeWriters(b *testing.B) {
	inst, pool := tableIV(b)
	for _, writers := range []int{1, 4, 16} {
		b.Run(strconv.Itoa(writers), func(b *testing.B) {
			s, err := New(Config{Instance: inst})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			h := s.Handler()
			batches, ops := s.batches.Load(), s.batchedOps.Load()
			var next atomic.Int64
			failed := make(chan error, writers)
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for next.Add(1) <= int64(b.N) {
						node := pool[rng.Intn(len(pool))]
						rec := serveHTTP(context.Background(), h, "POST", "/arrivals", fmt.Sprintf(`{"nodes":[%d]}`, node))
						var churn ChurnReply
						if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &churn) != nil {
							failed <- fmt.Errorf("arrival = %d %s", rec.Code, rec.Body)
							return
						}
						rec = serveHTTP(context.Background(), h, "POST", "/departures", fmt.Sprintf(`{"handles":[%d]}`, churn.Handles[0]))
						if rec.Code != http.StatusOK {
							failed <- fmt.Errorf("departure = %d %s", rec.Code, rec.Body)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			close(failed)
			for err := range failed {
				b.Fatal(err)
			}
			b.ReportMetric(float64(2*b.N)/elapsed.Seconds(), "writes/s")
			b.ReportMetric(float64(s.batchedOps.Load()-ops)/float64(s.batches.Load()-batches), "ops/batch")
		})
	}
}
