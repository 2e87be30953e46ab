package dynamic

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"mcfs/internal/data"
)

// SnapshotVersion identifies the snapshot JSON layout; ReadSnapshot
// refuses newer versions.
const SnapshotVersion = 1

// maxNextID bounds a restored next handle: 2^53, the largest integer a
// JSON client reads exactly, which live churn would need 2^53 arrivals
// to reach. Past it, or below 0, the handles later arrivals are given
// would wrap around.
const maxNextID int64 = 1 << 53

// Snapshot is a restartable capture of a Reallocator's dynamic state:
// the live customer population with its handles, the open selection,
// and the drift baseline. The static instance material (network,
// candidate catalogue, budget) is deliberately not embedded — a restore
// is performed against the same instance the process loads anyway, and
// the fingerprint fields guard against pairing a snapshot with the
// wrong one. RestoreCtx rebuilds the optimal matching from the captured
// selection, so the restored objective is exactly the minimum-cost
// assignment the snapshotted process was serving.
type Snapshot struct {
	Version int `json:"version"`

	// Instance fingerprint, checked by RestoreCtx.
	Nodes         int `json:"nodes"`
	Edges         int `json:"edges"`
	FacilityCount int `json:"facility_count"`
	K             int `json:"k"`

	// Dynamic state. Handles[i] is the live handle of the customer at
	// CustomerNodes[i]; handles are strictly increasing.
	NextID        int     `json:"next_id"`
	BaseObjective int64   `json:"base_objective"`
	Selected      []int   `json:"selected"`
	Handles       []int   `json:"handles"`
	CustomerNodes []int32 `json:"customer_nodes"`
	Stats         Stats   `json:"stats"`
}

// Snapshot captures the current state, as Freeze().Snapshot() would,
// without freezing anything. It reads the state only, so it succeeds
// under any context; the error is always nil and is kept for API
// stability.
func (r *Reallocator) Snapshot() (*Snapshot, error) {
	v := r.view()
	return v.Snapshot(), nil
}

// Snapshot captures the view as a restartable Snapshot, every slice
// freshly allocated. It is the one place a Snapshot is built, so the
// same state always writes the same bytes: an empty selection writes
// null, an empty population [].
func (v *View) Snapshot() *Snapshot {
	handles, nodes := v.tab.population()
	return &Snapshot{
		Version:       SnapshotVersion,
		Nodes:         v.g.N(),
		Edges:         v.g.M(),
		FacilityCount: v.facilities,
		K:             v.k,
		NextID:        v.nextID,
		BaseObjective: v.base,
		Selected:      append([]int(nil), v.selected...),
		Handles:       handles,
		CustomerNodes: nodes,
		Stats:         v.stats,
	}
}

// Write serializes the snapshot as indented JSON.
func (s *Snapshot) Write(w io.Writer) error {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// ReadSnapshot parses and structurally validates a snapshot document.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("dynamic: bad snapshot: %w", err)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("dynamic: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	if len(s.Handles) != len(s.CustomerNodes) {
		return nil, fmt.Errorf("dynamic: snapshot has %d handles for %d customers",
			len(s.Handles), len(s.CustomerNodes))
	}
	return &s, nil
}

// checkAgainst validates the snapshot against the instance it is being
// restored onto: fingerprint fields, the next handle and index ranges.
// A fingerprint mismatch names every disagreeing field with both sides —
// the snapshot value and the instance value — so the operator can tell a
// truncated network from a re-sampled facility catalogue from a changed
// budget at a glance.
func (s *Snapshot) checkAgainst(inst *data.Instance) error {
	var diffs []string
	for _, f := range []struct {
		name     string
		snapshot int
		instance int
	}{
		{"nodes", s.Nodes, inst.G.N()},
		{"edges", s.Edges, inst.G.M()},
		{"facilities", s.FacilityCount, inst.L()},
		{"k", s.K, inst.K},
	} {
		if f.snapshot != f.instance {
			diffs = append(diffs, fmt.Sprintf("%s: snapshot %d vs instance %d", f.name, f.snapshot, f.instance))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("dynamic: snapshot fingerprint mismatch: %s", strings.Join(diffs, "; "))
	}
	if s.NextID < 0 || int64(s.NextID) > maxNextID {
		return fmt.Errorf("dynamic: snapshot next_id %d outside [0, 2^53]", s.NextID)
	}
	for i, h := range s.Handles {
		if h < 0 || h >= s.NextID {
			return fmt.Errorf("dynamic: snapshot handle %d outside [0,%d)", h, s.NextID)
		}
		if i > 0 && h <= s.Handles[i-1] {
			return fmt.Errorf("dynamic: snapshot handle %d follows %d; handles must be strictly increasing", h, s.Handles[i-1])
		}
		if node := s.CustomerNodes[i]; node < 0 || int(node) >= inst.G.N() {
			return fmt.Errorf("dynamic: snapshot customer %d at invalid node %d", h, node)
		}
	}
	return nil
}

// RestoreCtx reconstructs a Reallocator from a snapshot taken against
// an identical instance: the captured population keeps its handles, the
// captured selection is reinstalled, and the optimal matching is
// rebuilt — reproducing the snapshotted objective exactly (the
// minimum-cost assignment to a fixed selection is unique in value). The
// work counters resume from the captured Stats. Handles must be
// strictly increasing, as Snapshot writes them: the live table and
// Published.Lookup rely on it. NextID must lie in [0, 2^53] (see
// maxNextID). See NewCtx for the context contract.
func RestoreCtx(ctx context.Context, inst *data.Instance, s *Snapshot, opt Options) (*Reallocator, error) {
	if err := s.checkAgainst(inst); err != nil {
		return nil, err
	}
	r, err := skeleton(ctx, inst, opt)
	if err != nil {
		return nil, err
	}
	r.nextID = s.NextID
	for i, h := range s.Handles {
		r.tab.add(h, entry{node: s.CustomerNodes[i], idx: int32(i), fac: -1})
	}
	if err := r.adopt(s.Selected); err != nil {
		return nil, err
	}
	r.baseObjective = s.BaseObjective
	r.stats = s.Stats
	return r, nil
}
