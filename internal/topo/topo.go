// Package topo defines the array's address geometry: how the flash
// array network is laid out (switches → clusters → FIMMs → packages →
// dies → blocks → pages) and how physical page numbers are packed into
// 64-bit values shared by the FTL, the array and the autonomic manager.
package topo

import (
	"fmt"

	"triplea/internal/nand"
	"triplea/internal/units"
)

// Geometry describes the array topology and the flash geometry beneath
// it. It is the single source of truth for address arithmetic.
type Geometry struct {
	Switches          int // PCI-E switches under the root complex
	ClustersPerSwitch int
	FIMMsPerCluster   int
	PackagesPerFIMM   int
	Nand              nand.Params
}

// Validate reports whether the geometry is usable and fits the PPN
// bit-packing limits.
func (g Geometry) Validate() error {
	switch {
	case g.Switches <= 0 || g.Switches > maxSwitch:
		return fmt.Errorf("topo: Switches %d out of range [1,%d]", g.Switches, maxSwitch)
	case g.ClustersPerSwitch <= 0 || g.ClustersPerSwitch > maxCluster:
		return fmt.Errorf("topo: ClustersPerSwitch %d out of range [1,%d]", g.ClustersPerSwitch, maxCluster)
	case g.FIMMsPerCluster <= 0 || g.FIMMsPerCluster > maxFIMM:
		return fmt.Errorf("topo: FIMMsPerCluster %d out of range [1,%d]", g.FIMMsPerCluster, maxFIMM)
	case g.PackagesPerFIMM <= 0 || g.PackagesPerFIMM > maxPkg:
		return fmt.Errorf("topo: PackagesPerFIMM %d out of range [1,%d]", g.PackagesPerFIMM, maxPkg)
	}
	if err := g.Nand.Validate(); err != nil {
		return err
	}
	if g.Nand.DiesPerPackage > maxDie {
		return fmt.Errorf("topo: DiesPerPackage %d exceeds %d", g.Nand.DiesPerPackage, maxDie)
	}
	if blocks := g.Nand.BlocksPerPlane.Int() * g.Nand.PlanesPerDie; blocks > maxBlock {
		return fmt.Errorf("topo: %d blocks per die exceeds %d", blocks, maxBlock)
	}
	if g.Nand.PagesPerBlock > maxPage {
		return fmt.Errorf("topo: PagesPerBlock %d exceeds %d", g.Nand.PagesPerBlock, maxPage)
	}
	return nil
}

// TotalClusters reports the cluster count across all switches.
func (g Geometry) TotalClusters() int { return g.Switches * g.ClustersPerSwitch }

// TotalFIMMs reports the FIMM count across the array.
func (g Geometry) TotalFIMMs() int { return g.TotalClusters() * g.FIMMsPerCluster }

// PagesPerFIMM reports the page count of one FIMM.
func (g Geometry) PagesPerFIMM() units.Pages {
	return units.Pages(g.PackagesPerFIMM) * g.Nand.PagesPerPackage()
}

// TotalPages reports the array's page count.
func (g Geometry) TotalPages() units.Pages {
	return units.Pages(g.TotalFIMMs()) * g.PagesPerFIMM()
}

// TotalBytes reports the array capacity in bytes.
func (g Geometry) TotalBytes() units.Bytes {
	return units.PagesToBytes(g.TotalPages(), g.Nand.PageSizeBytes)
}

// ParallelUnitsPerFIMM reports the independently programmable units of
// one FIMM: packages × dies × planes.
func (g Geometry) ParallelUnitsPerFIMM() int {
	return g.PackagesPerFIMM * g.Nand.DiesPerPackage * g.Nand.PlanesPerDie
}

// ClusterID names one cluster (endpoint + FIMMs) in the array.
type ClusterID struct {
	Switch  int
	Cluster int // index under its switch
}

func (c ClusterID) String() string { return fmt.Sprintf("sw%d/cl%d", c.Switch, c.Cluster) }

// Flat reports the cluster's array-wide index. It takes the geometry
// by pointer: hot paths call it per page, and a Geometry copy costs
// more than the arithmetic.
func (c ClusterID) Flat(g *Geometry) int { return c.Switch*g.ClustersPerSwitch + c.Cluster }

// ClusterFromFlat is the inverse of ClusterID.Flat.
func ClusterFromFlat(g Geometry, flat int) ClusterID {
	return ClusterID{Switch: flat / g.ClustersPerSwitch, Cluster: flat % g.ClustersPerSwitch}
}

// Addr reports the cluster's fabric address: the switch index in the
// high 32 bits and the cluster index under it in the low 32. Requests
// carry it downstream and completions upstream, so the root complex and
// the switches can route on it.
func (c ClusterID) Addr() uint64 { return uint64(c.Switch)<<32 | uint64(c.Cluster) }

// ClusterAt is the inverse of ClusterID.Addr.
func ClusterAt(addr uint64) ClusterID {
	return ClusterID{Switch: int(addr >> 32), Cluster: int(addr & 0xffffffff)}
}

// FIMMID names one FIMM in the array.
type FIMMID struct {
	ClusterID
	FIMM int // slot within the cluster
}

func (f FIMMID) String() string { return fmt.Sprintf("%v/f%d", f.ClusterID, f.FIMM) }

// Flat reports the FIMM's array-wide index; see ClusterID.Flat.
func (f FIMMID) Flat(g *Geometry) int {
	return f.ClusterID.Flat(g)*g.FIMMsPerCluster + f.FIMM
}

// FIMMFromFlat is the inverse of FIMMID.Flat.
func FIMMFromFlat(g Geometry, flat int) FIMMID {
	return FIMMID{
		ClusterID: ClusterFromFlat(g, flat/g.FIMMsPerCluster),
		FIMM:      flat % g.FIMMsPerCluster,
	}
}

// PPN is a physical page number: the full path to one flash page,
// bit-packed so sparse maps of touched pages stay small.
//
// Layout (LSB first): page:12 | block:20 | die:3 | pkg:5 | fimm:4 |
// cluster:8 | switch:4. Block is the die-level block address (its
// parity selects the plane).
type PPN uint64

const (
	pageBits, blockBits, dieBits, pkgBits, fimmBits, clusterBits, switchBits = 12, 20, 3, 5, 4, 8, 4

	pageShift    = 0
	blockShift   = pageShift + pageBits
	dieShift     = blockShift + blockBits
	pkgShift     = dieShift + dieBits
	fimmShift    = pkgShift + pkgBits
	clusterShift = fimmShift + fimmBits
	switchShift  = clusterShift + clusterBits

	maxPage    = 1<<pageBits - 1
	maxBlock   = 1<<blockBits - 1
	maxDie     = 1<<dieBits - 1
	maxPkg     = 1<<pkgBits - 1
	maxFIMM    = 1<<fimmBits - 1
	maxCluster = 1<<clusterBits - 1
	maxSwitch  = 1<<switchBits - 1
)

// PackPPN assembles a PPN; out-of-range components panic (they indicate
// address-arithmetic bugs, not runtime conditions).
func PackPPN(sw, cluster, fimmSlot, pkg, die, block, page int) PPN {
	check := func(v, max int, what string) {
		if v < 0 || v > max {
			panic(fmt.Sprintf("topo: %s %d out of packable range [0,%d]", what, v, max))
		}
	}
	check(sw, maxSwitch, "switch")
	check(cluster, maxCluster, "cluster")
	check(fimmSlot, maxFIMM, "fimm")
	check(pkg, maxPkg, "package")
	check(die, maxDie, "die")
	check(block, maxBlock, "block")
	check(page, maxPage, "page")
	return PPN(uint64(page)<<pageShift |
		uint64(block)<<blockShift |
		uint64(die)<<dieShift |
		uint64(pkg)<<pkgShift |
		uint64(fimmSlot)<<fimmShift |
		uint64(cluster)<<clusterShift |
		uint64(sw)<<switchShift)
}

// Switch extracts the switch index.
func (p PPN) Switch() int { return int(p>>switchShift) & maxSwitch }

// Cluster extracts the cluster index under its switch.
func (p PPN) Cluster() int { return int(p>>clusterShift) & maxCluster }

// FIMMSlot extracts the FIMM slot within its cluster.
func (p PPN) FIMMSlot() int { return int(p>>fimmShift) & maxFIMM }

// Pkg extracts the package index within the FIMM.
func (p PPN) Pkg() int { return int(p>>pkgShift) & maxPkg }

// Die extracts the die index within the package.
func (p PPN) Die() int { return int(p>>dieShift) & maxDie }

// Block extracts the die-level block address.
func (p PPN) Block() int { return int(p>>blockShift) & maxBlock }

// Page extracts the page index within the block.
func (p PPN) Page() int { return int(p>>pageShift) & maxPage }

// ClusterID reports the cluster the page lives in.
func (p PPN) ClusterID() ClusterID { return ClusterID{Switch: p.Switch(), Cluster: p.Cluster()} }

// FIMMID reports the FIMM the page lives in.
func (p PPN) FIMMID() FIMMID { return FIMMID{ClusterID: p.ClusterID(), FIMM: p.FIMMSlot()} }

// BlockKey reports the PPN with its page bits cleared — a stable
// identifier for the erase block the page lives in.
func (p PPN) BlockKey() PPN { return p &^ PPN(maxPage) }

// NandAddr reports the page's address within its package. The plane is
// derived from the block's parity per the even/odd addressing rule.
func (p PPN) NandAddr(g *Geometry) nand.Addr {
	return nand.Addr{
		Die:   p.Die(),
		Plane: p.Block() % g.Nand.PlanesPerDie,
		Block: p.Block(),
		Page:  p.Page(),
	}
}

func (p PPN) String() string {
	return fmt.Sprintf("sw%d/cl%d/f%d/pk%d/d%d/b%d/pg%d",
		p.Switch(), p.Cluster(), p.FIMMSlot(), p.Pkg(), p.Die(), p.Block(), p.Page())
}
