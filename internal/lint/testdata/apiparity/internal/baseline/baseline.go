// Package baseline stands in for mcfs/internal/baseline: the fixture's
// root package only needs the guarded solver entry points to resolve.
package baseline

func HilbertCtx() {}

func BRNNCtx() {}
