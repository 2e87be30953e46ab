// Package core stands in for mcfs/internal/core: one guarded Solve*
// entry point pair and one helper the registry rule leaves alone.
package core

func SolveCtx() {}

func SolveUniformFirstCtx() {}

func AssignToSelectionCtx() {}
