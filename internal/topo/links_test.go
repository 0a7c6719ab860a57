package topo_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"kspot/internal/config"
	"kspot/internal/model"
	"kspot/internal/topo"
)

// pairwiseLinks is the reference unit-disk relation: every pair of nodes
// tested once with the exact predicate DiskLinks must reproduce. It returns
// each node's neighbors in ascending id order.
func pairwiseLinks(p *topo.Placement, radius float64) map[model.NodeID][]model.NodeID {
	ids := p.Nodes()
	pts := make([]topo.Point, len(ids))
	for i, id := range ids {
		pts[i] = p.Positions[id]
	}
	adj := make(map[model.NodeID][]model.NodeID, len(ids))
	for i, a := range ids {
		for j := i + 1; j < len(ids); j++ {
			if pts[i].Dist(pts[j]) <= radius {
				b := ids[j]
				adj[a] = append(adj[a], b)
				adj[b] = append(adj[b], a)
			}
		}
	}
	for _, ns := range adj {
		slices.Sort(ns)
	}
	return adj
}

// assertMatchesPairwise compares DiskLinks with the pairwise oracle node
// by node and reports how many links the placement has.
func assertMatchesPairwise(t *testing.T, p *topo.Placement, radius float64) int {
	t.Helper()
	want := pairwiseLinks(p, radius)
	got := topo.DiskLinks(p, radius)
	links := 0
	for _, id := range p.Nodes() {
		if g, w := got.Neighbors(id), want[id]; !slices.Equal(g, w) {
			t.Fatalf("node %d: grid neighbors %v, pairwise %v", id, g, w)
		}
		links += len(want[id])
	}
	return links / 2
}

// place builds a placement from explicit points; pts[0] is the sink.
func place(pts ...topo.Point) *topo.Placement {
	p := topo.NewPlacement()
	for i, pt := range pts {
		p.Positions[model.NodeID(i)] = pt
	}
	return p
}

// lattice places side x side nodes spaced exactly step apart from origin
// (ox, oy), so every axis neighbor sits at distance radius when step is the
// radius, and the points fall on multiples of the grid's cell side.
func lattice(side int, step, ox, oy float64) *topo.Placement {
	pts := make([]topo.Point, 0, side*side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			pts = append(pts, topo.Point{X: ox + float64(c)*step, Y: oy + float64(r)*step})
		}
	}
	return place(pts...)
}

func shift(p *topo.Placement, dx, dy float64) *topo.Placement {
	for id, pt := range p.Positions {
		p.Positions[id] = topo.Point{X: pt.X + dx, Y: pt.Y + dy}
	}
	return p
}

func TestDiskLinksMatchesPairwise(t *testing.T) {
	cases := []struct {
		name   string
		p      *topo.Placement
		radius float64
	}{
		{"uniform-200-r20", topo.UniformRandom(200, 100, 1), 20},
		{"uniform-500-r7.5", topo.UniformRandom(500, 100, 2), 7.5},
		{"uniform-1000-r35", topo.UniformRandom(1000, 300, 3), 35},
		{"uniform-300-tiny-radius", topo.UniformRandom(300, 100, 4), 1e-6},
		{"rooms-16x20-r15", topo.Rooms(16, 20, 12, 5), 15},
		{"rooms-50x20-r12", topo.Rooms(50, 20, 12, 6), 12},
		{"rooms-9x30-r0.3", topo.Rooms(9, 30, 10, 7), 0.3},
		{"lattice-r10", lattice(20, 10, 0, 0), 10},
		{"lattice-r0.1", lattice(25, 0.1, 0, 0), 0.1},
		{"lattice-r2.5-diagonals", lattice(20, 2.5, 0, 0), 2.5 * math.Sqrt2},
		{"lattice-negative-origin", lattice(20, 3, -30, -45), 3},
		{"lattice-straddles-zero", lattice(21, 0.7, -7, -7), 0.7},
		{"uniform-negative-coords", shift(topo.UniformRandom(400, 100, 8), -1000, -250), 15},
		{"uniform-huge-offset", shift(topo.UniformRandom(300, 100, 9), 1e9, -1e9), 15},
		{"coincident-points", place(
			topo.Point{X: 1, Y: 1}, topo.Point{X: 1, Y: 1}, topo.Point{X: 1, Y: 1},
			topo.Point{X: 5, Y: 5}, topo.Point{X: 5, Y: 5}, topo.Point{X: 9, Y: 1},
		), 4},
		{"all-coincident", place(topo.Point{X: 3, Y: 3}, topo.Point{X: 3, Y: 3}, topo.Point{X: 3, Y: 3}), 1},
		{"all-coincident-zero-radius", place(topo.Point{X: 3, Y: 3}, topo.Point{X: 3, Y: 3}), 0},
		{"zero-radius", place(topo.Point{}, topo.Point{X: 1}, topo.Point{X: 1}, topo.Point{X: 2}), 0},
		{"negative-radius", topo.UniformRandom(50, 10, 10), -1},
		{"single-node", place(topo.Point{X: -4, Y: 7}), 10},
		{"radius-larger-than-field", topo.UniformRandom(150, 50, 11), 1000},
		{"collinear-x", place(topo.Point{}, topo.Point{X: 10}, topo.Point{X: 20}, topo.Point{X: 30.0000001}), 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertMatchesPairwise(t, tc.p, tc.radius)
		})
	}
	t.Run("empty", func(t *testing.T) {
		if ns := topo.DiskLinks(topo.NewPlacement(), 10).Neighbors(0); len(ns) != 0 {
			t.Fatalf("empty placement has neighbors %v", ns)
		}
	})
}

// TestDiskLinksMatchesPairwiseScale pins full adjacency equality on the
// generated scale deployments the byte-identity suites run on.
func TestDiskLinksMatchesPairwiseScale(t *testing.T) {
	sizes := []int{1000, 4000, 8000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		t.Run(fmt.Sprintf("scale-%d", n), func(t *testing.T) {
			s, err := config.ScaleScenario(n)
			if err != nil {
				t.Fatal(err)
			}
			if links := assertMatchesPairwise(t, s.Placement(), s.Radius); links == 0 {
				t.Fatal("scale deployment has no links")
			}
		})
	}
}

func TestDiskLinksRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name   string
		p      *topo.Placement
		radius float64
	}{
		{"nan-radius", topo.UniformRandom(5, 10, 1), math.NaN()},
		{"inf-radius", topo.UniformRandom(5, 10, 1), math.Inf(1)},
		{"nan-x", place(topo.Point{}, topo.Point{X: math.NaN()}), 5},
		{"inf-y", place(topo.Point{}, topo.Point{Y: math.Inf(-1)}), 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("DiskLinks accepted non-finite geometry")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "not finite") {
					t.Fatalf("panic %q does not say what is wrong", msg)
				}
			}()
			topo.DiskLinks(tc.p, tc.radius)
		})
	}
}

// TestConnectKeepsAdjacencySorted: Connect inserts in order, ignores
// duplicates and self links, and growing one node's list after DiskLinks
// never disturbs another node's shared run.
func TestConnectKeepsAdjacencySorted(t *testing.T) {
	l := topo.NewLinks()
	for _, e := range [][2]model.NodeID{{5, 1}, {5, 9}, {5, 3}, {1, 5}, {5, 5}, {2, 5}} {
		l.Connect(e[0], e[1])
	}
	if got, want := l.Neighbors(5), []model.NodeID{1, 2, 3, 9}; !slices.Equal(got, want) {
		t.Fatalf("Neighbors(5) = %v, want %v", got, want)
	}
	if !l.Connected(9, 5) || l.Connected(5, 4) || l.Connected(5, 5) || l.Connected(700, 5) {
		t.Fatal("Connected disagrees with the links added")
	}
	if ns := l.Neighbors(700); ns != nil {
		t.Fatalf("Neighbors of an unknown node = %v", ns)
	}

	p := lattice(6, 1, 0, 0)
	want := pairwiseLinks(p, 1)
	dl := topo.DiskLinks(p, 1)
	for _, id := range p.Nodes() {
		dl.Connect(id, 1000)
	}
	for _, id := range p.Nodes() {
		if got := dl.Neighbors(id); !slices.Equal(got, append(slices.Clone(want[id]), 1000)) {
			t.Fatalf("node %d after Connect: %v, want %v + 1000", id, got, want[id])
		}
	}
}

func TestNeighborsDoesNotAllocate(t *testing.T) {
	p := topo.UniformRandom(200, 100, 1)
	l := topo.DiskLinks(p, 20)
	ids := p.Nodes()
	var n int
	allocs := testing.AllocsPerRun(100, func() {
		for _, id := range ids {
			n += len(l.Neighbors(id))
		}
	})
	if allocs != 0 {
		t.Fatalf("Neighbors allocates %.1f times per sweep", allocs)
	}
	if n == 0 {
		t.Fatal("no neighbors seen")
	}
}

// scaleScenario generates the flat scale-<n> layout the cold-start
// benchmarks build links and trees over.
func scaleScenario(b *testing.B, n int) *config.Scenario {
	b.Helper()
	s, err := config.ScaleScenario(n)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

var benchLinks *topo.Links

func BenchmarkDiskLinks(b *testing.B) {
	for _, n := range []int{1000, 8000, 16000} {
		s := scaleScenario(b, n)
		p := s.Placement()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				benchLinks = topo.DiskLinks(p, s.Radius)
			}
		})
	}
}

var benchTree *topo.Tree

func BenchmarkBuildTree(b *testing.B) {
	for _, n := range []int{1000, 8000, 16000} {
		s := scaleScenario(b, n)
		p := s.Placement()
		links := topo.DiskLinks(p, s.Radius)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				tree, err := topo.BuildTree(p, links)
				if err != nil {
					b.Fatal(err)
				}
				benchTree = tree
			}
		})
	}
}
