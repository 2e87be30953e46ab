package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"mcfs"
)

// FuzzChurnBodies posts arbitrary bytes as an /arrivals and as a
// /departures body, each to a fresh in-process server restored from
// the same snapshot of testInstance: bad nodes, unknown or repeated
// handles, long lists, and whatever else the fuzzer writes. Every
// reply is 200 or 4xx, never 5xx or a panic. A 4xx leaves the
// published objective, handles and assignment as they were. After a
// 200 the published objective is the optimum AssignToSelection finds
// for the published selection and population.
func FuzzChurnBodies(f *testing.F) {
	inst := testInstance(f)
	r, err := mcfs.NewReallocator(inst, 0)
	if err != nil {
		f.Fatal(err)
	}
	snap, err := r.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"handles":[5,5]}`))
	f.Add([]byte(`{"handles":[6,99999]}`))
	f.Add([]byte(`{"handles":[0,29,3]}`))
	f.Add([]byte(`{"nodes":[7,7,-1]}`))
	f.Add([]byte(`{"nodes":[12,40,299,300]}`))
	f.Add([]byte(`{"nodes":[]}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/arrivals", "/departures"} {
			s, err := New(Config{Instance: inst, Snapshot: snap})
			if err != nil {
				t.Fatal(err)
			}
			before := s.View()
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			s.Close()
			after := s.View()
			switch {
			case w.Code == http.StatusOK:
				now := &mcfs.Instance{G: inst.G, Customers: after.Nodes, Facilities: inst.Facilities, K: inst.K}
				best, err := mcfs.AssignToSelection(now, after.Selected)
				if err != nil {
					t.Fatalf("%s %q: 200, but the published selection cannot serve its population: %v", path, body, err)
				}
				if best.Objective != after.Objective {
					t.Fatalf("%s %q: published objective %d, optimum for its selection %d", path, body, after.Objective, best.Objective)
				}
			case w.Code >= 400 && w.Code < 500:
				if after.Objective != before.Objective || !slices.Equal(after.Handles, before.Handles) ||
					!slices.Equal(after.Assignment, before.Assignment) {
					t.Fatalf("%s %q: %d %s, yet the published view moved: objective %d → %d, %d → %d customers",
						path, body, w.Code, bytes.TrimSpace(w.Body.Bytes()), before.Objective, after.Objective,
						len(before.Handles), len(after.Handles))
				}
			default:
				t.Fatalf("%s %q: status %d: %s", path, body, w.Code, bytes.TrimSpace(w.Body.Bytes()))
			}
		}
	})
}
