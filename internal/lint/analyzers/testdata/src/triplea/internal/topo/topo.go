// Package topo is a miniature stand-in for the repository's real
// internal/topo: the units analyzer treats PPN as a unit type.
package topo

type PPN uint64

func (p PPN) Page() int { return int(p & 0xfff) }
