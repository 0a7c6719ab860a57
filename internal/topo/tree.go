package topo

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"kspot/internal/model"
)

// Links is the symmetric connectivity relation: which pairs of nodes can
// hear each other. Every node's neighbors are held as one slice sorted by
// id (adj is indexed by node id), so Neighbors and Connected need neither a
// sort nor a map lookup.
type Links struct {
	adj [][]model.NodeID
}

// NewLinks returns an empty link set.
func NewLinks() *Links { return &Links{} }

// Connect adds a bidirectional link.
func (l *Links) Connect(a, b model.NodeID) {
	if a == b {
		return
	}
	if n := int(max(a, b)) + 1; n > len(l.adj) {
		l.adj = append(l.adj, make([][]model.NodeID, n-len(l.adj))...)
	}
	l.adj[a] = insertSorted(l.adj[a], b)
	l.adj[b] = insertSorted(l.adj[b], a)
}

// insertSorted adds id to the sorted slice s unless already present.
func insertSorted(s []model.NodeID, id model.NodeID) []model.NodeID {
	i, found := slices.BinarySearch(s, id)
	if found {
		return s
	}
	return slices.Insert(s, i, id)
}

// Connected reports whether a and b share a link.
func (l *Links) Connected(a, b model.NodeID) bool {
	_, found := slices.BinarySearch(l.Neighbors(a), b)
	return found
}

// Neighbors returns a node's neighbors in ascending id order. The slice is
// shared with the link set — callers must not modify it.
func (l *Links) Neighbors(a model.NodeID) []model.NodeID {
	if int(a) >= len(l.adj) {
		return nil
	}
	return l.adj[a]
}

// DiskLinks builds unit-disk connectivity: two nodes are linked iff their
// distance is at most radius (the MICA2's usable indoor range for a given
// power setting).
//
// The build is expected O(n + E): nodes are bucketed into a uniform grid
// whose cells are at least radius wide, so every linked pair lies in the
// same or adjacent cells and each node is tested only against its own cell
// and the neighboring ones. The predicate is the exact Dist <= radius test
// of the pairwise definition, so the link set is identical to it.
func DiskLinks(p *Placement, radius float64) *Links {
	if !finite(radius) {
		panic(fmt.Sprintf("topo: DiskLinks radius %v is not finite", radius))
	}
	ids := p.Nodes()
	l := &Links{}
	if len(ids) == 0 {
		return l
	}
	pts := make([]Point, len(ids))
	for i, id := range ids {
		pt := p.Positions[id]
		if !finite(pt.X) || !finite(pt.Y) {
			panic(fmt.Sprintf("topo: DiskLinks node %d position %+v is not finite", id, pt))
		}
		pts[i] = pt
	}
	g := newGrid(pts, radius)

	// Each unordered pair is tested once: against the later nodes of the
	// same cell and every node of the four "forward" neighbor cells (the
	// other four see this cell as their forward neighbor). The scan walks
	// the grid's own cell-ordered copy of the positions.
	deg := make([]int32, len(ids))
	var pairs []int32
	test := func(a, from, to int32) {
		pa := g.pts[a]
		for b := from; b < to; b++ {
			if pa.Dist(g.pts[b]) <= radius {
				i, j := g.idx[a], g.idx[b]
				pairs = append(pairs, i, j)
				deg[i]++
				deg[j]++
			}
		}
	}
	forward := [4][2]int{{1, 0}, {-1, 1}, {0, 1}, {1, 1}}
	for cy := 0; cy < g.h; cy++ {
		for cx := 0; cx < g.w; cx++ {
			lo, hi := g.cell(cx, cy)
			for a := lo; a < hi; a++ {
				test(a, a+1, hi)
				for _, d := range forward {
					if nx, ny := cx+d[0], cy+d[1]; nx >= 0 && nx < g.w && ny < g.h {
						from, to := g.cell(nx, ny)
						test(a, from, to)
					}
				}
			}
		}
	}

	// Lay every node's neighbors out in one backing array, sorted by a
	// two-pass counting sort: bucket the pairs by node, then transpose —
	// walking the nodes in ascending order and appending each to its
	// neighbors' runs leaves every run in ascending id order. Capacities
	// are clipped so a later Connect reallocates instead of spilling into
	// the next node's run.
	off := make([]int32, len(ids)+1)
	for i, d := range deg {
		off[i+1] = off[i] + d
	}
	unsorted := make([]int32, off[len(ids)])
	next := slices.Clone(off[:len(ids)])
	for k := 0; k < len(pairs); k += 2 {
		i, j := pairs[k], pairs[k+1]
		unsorted[next[i]] = j
		next[i]++
		unsorted[next[j]] = i
		next[j]++
	}
	flat := make([]model.NodeID, off[len(ids)])
	copy(next, off)
	for v, id := range ids {
		for _, u := range unsorted[off[v]:off[v+1]] {
			flat[next[u]] = id
			next[u]++
		}
	}
	l.adj = make([][]model.NodeID, int(ids[len(ids)-1])+1)
	for i, id := range ids {
		l.adj[id] = flat[off[i]:off[i+1]:off[i+1]]
	}
	return l
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// grid buckets points into w x h square cells. Cell c holds the points
// pts[start[c]:start[c+1]] — copies of the positions, laid out cell by
// cell — and idx maps each back to its index in the input slice.
type grid struct {
	w, h  int
	start []int32
	pts   []Point
	idx   []int32
}

// cell returns the bounds of cell (cx, cy) in pts and idx.
func (g *grid) cell(cx, cy int) (lo, hi int32) {
	c := cy*g.w + cx
	return g.start[c], g.start[c+1]
}

// newGrid buckets pts into cells of side at least radius — and at least
// the extent over √n, which keeps the cell count O(n) however small radius
// is. The side carries a relative margin over radius so that two points
// within radius of each other never land two cells apart through rounding
// in the cell-index arithmetic.
func newGrid(pts []Point, radius float64) *grid {
	minX, minY := pts[0].X, pts[0].Y
	maxX, maxY := minX, minY
	for _, pt := range pts[1:] {
		minX, maxX = min(minX, pt.X), max(maxX, pt.X)
		minY, maxY = min(minY, pt.Y), max(maxY, pt.Y)
	}
	extent := max(maxX-minX, maxY-minY)
	side := max(radius*(1+1e-9), extent/math.Ceil(math.Sqrt(float64(len(pts)))))
	// All points coinciding, or a field whose extent overflows, makes a
	// single cell.
	single := !(side > 0) || math.IsInf(side, 1)
	axis := func(v, lo float64) int {
		if single {
			return 0
		}
		return int((v - lo) / side)
	}
	g := &grid{w: axis(maxX, minX) + 1, h: axis(maxY, minY) + 1}
	cellOf := make([]int32, len(pts))
	g.start = make([]int32, g.w*g.h+1)
	for i, pt := range pts {
		c := int32(axis(pt.Y, minY)*g.w + axis(pt.X, minX))
		cellOf[i] = c
		g.start[c+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	g.pts = make([]Point, len(pts))
	g.idx = make([]int32, len(pts))
	next := slices.Clone(g.start[:len(g.start)-1])
	for i, c := range cellOf {
		g.pts[next[c]] = pts[i]
		g.idx[next[c]] = int32(i)
		next[c]++
	}
	return g
}

// Tree is the TAG-style routing tree rooted at the sink. Every KSpot message
// travels along tree edges: views and answers up, queries and γ beacons down.
type Tree struct {
	Parent   map[model.NodeID]model.NodeID
	Children map[model.NodeID][]model.NodeID
	Depth    map[model.NodeID]int
	Root     model.NodeID

	// post/pre cache the traversal orders: the epoch hot path walks the
	// tree once per sweep and must not re-sort the node set every time.
	// Structural mutation (RemoveNode) invalidates them.
	post, pre []model.NodeID

	// levels caches the per-depth slices of PostOrder (levels[d] holds the
	// depth-d nodes in ascending id order) for the level-synchronous sweep.
	// Invalidated together with post/pre.
	levels [][]model.NodeID
}

// BuildTree runs the first-heard BFS tree construction of TAG: the sink
// broadcasts a beacon; each node adopts as parent the first (lowest-id at
// equal depth) neighbor it hears the beacon from. Nodes unreachable from the
// sink are reported as an error — a deployment bug the Configuration Panel
// would surface.
func BuildTree(p *Placement, links *Links) (*Tree, error) {
	ids := p.Nodes()
	t := &Tree{
		Parent:   make(map[model.NodeID]model.NodeID, len(ids)),
		Children: make(map[model.NodeID][]model.NodeID),
		Depth:    make(map[model.NodeID]int, len(ids)),
		Root:     model.Sink,
	}
	t.Depth[model.Sink] = 0
	frontier := []model.NodeID{model.Sink}
	// Every neighbor id indexes links.adj, so visited can be dense too.
	visited := make([]bool, max(len(links.adj), 1))
	visited[model.Sink] = true
	for len(frontier) > 0 {
		var next []model.NodeID
		// Deterministic order: lower-id nodes claim children first, which is
		// the "first heard" rule with ties broken by id. Each node expands
		// once and its neighbors come sorted, so every Children list is
		// built in ascending id order.
		slices.Sort(frontier)
		for _, u := range frontier {
			for _, v := range links.Neighbors(u) {
				if visited[v] {
					continue
				}
				visited[v] = true
				t.Parent[v] = u
				t.Depth[v] = t.Depth[u] + 1
				t.Children[u] = append(t.Children[u], v)
				next = append(next, v)
			}
		}
		frontier = next
	}
	for _, id := range ids {
		if int(id) >= len(visited) || !visited[id] {
			return nil, fmt.Errorf("topo: node %d unreachable from sink", id)
		}
	}
	return t, nil
}

// Size returns the number of nodes in the tree.
func (t *Tree) Size() int { return len(t.Depth) }

// MaxDepth returns the height of the tree.
func (t *Tree) MaxDepth() int {
	m := 0
	for _, d := range t.Depth {
		if d > m {
			m = d
		}
	}
	return m
}

// PostOrder returns nodes deepest-first (children strictly before parents):
// the order in which the epoch up-sweep processes transmissions, mirroring
// TAG's depth-indexed TDMA schedule. The slice is cached and shared —
// callers must not modify it.
func (t *Tree) PostOrder() []model.NodeID {
	if t.post == nil {
		ids := make([]model.NodeID, 0, len(t.Depth))
		for id := range t.Depth {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool {
			if t.Depth[ids[i]] != t.Depth[ids[j]] {
				return t.Depth[ids[i]] > t.Depth[ids[j]]
			}
			return ids[i] < ids[j]
		})
		t.post = ids
	}
	return t.post
}

// PreOrder returns nodes shallowest-first (parents before children): the
// order of the downstream beacon sweep. The slice is cached and shared —
// callers must not modify it.
func (t *Tree) PreOrder() []model.NodeID {
	if t.pre == nil {
		post := t.PostOrder()
		ids := make([]model.NodeID, len(post))
		for i, id := range post {
			ids[len(ids)-1-i] = id
		}
		t.pre = ids
	}
	return t.pre
}

// Levels returns the nodes grouped by depth: Levels()[d] holds every
// depth-d node in ascending id order, so concatenating the levels from
// deepest to shallowest reproduces PostOrder exactly. This is the unit of
// work of the level-synchronous sweep: all nodes within one level are
// independent (their receivers live one level up), so they may be computed
// concurrently as long as their transmissions commit in PostOrder position.
// The slices are cached and shared — callers must not modify them.
func (t *Tree) Levels() [][]model.NodeID {
	if t.levels == nil {
		post := t.PostOrder()
		levels := make([][]model.NodeID, t.MaxDepth()+1)
		for _, id := range post {
			d := t.Depth[id]
			levels[d] = append(levels[d], id)
		}
		t.levels = levels
	}
	return t.levels
}

// invalidateOrders drops the cached traversals after structural mutation.
func (t *Tree) invalidateOrders() { t.post, t.pre, t.levels = nil, nil, nil }

// Subtree returns the set of nodes in the subtree rooted at n (inclusive).
func (t *Tree) Subtree(n model.NodeID) map[model.NodeID]bool {
	out := map[model.NodeID]bool{n: true}
	stack := []model.NodeID{n}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range t.Children[u] {
			out[c] = true
			stack = append(stack, c)
		}
	}
	return out
}

// PathToRoot returns the nodes from n up to the root, inclusive of both.
func (t *Tree) PathToRoot(n model.NodeID) []model.NodeID {
	path := []model.NodeID{n}
	for n != t.Root {
		p, ok := t.Parent[n]
		if !ok {
			break
		}
		path = append(path, p)
		n = p
	}
	return path
}

// Validate checks structural invariants: single root, acyclic parent chains,
// child depth = parent depth + 1, children lists consistent with parents.
func (t *Tree) Validate() error {
	for n, p := range t.Parent {
		if t.Depth[n] != t.Depth[p]+1 {
			return fmt.Errorf("topo: node %d depth %d but parent %d depth %d", n, t.Depth[n], p, t.Depth[p])
		}
		found := false
		for _, c := range t.Children[p] {
			if c == n {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("topo: node %d missing from parent %d children", n, p)
		}
	}
	for n := range t.Depth {
		seen := map[model.NodeID]bool{}
		for cur := n; cur != t.Root; {
			if seen[cur] {
				return fmt.Errorf("topo: cycle through node %d", cur)
			}
			seen[cur] = true
			p, ok := t.Parent[cur]
			if !ok {
				return fmt.Errorf("topo: node %d has no path to root", n)
			}
			cur = p
		}
	}
	return nil
}

// RemoveNode detaches a failed node, re-parenting its children to the best
// surviving linked neighbor (smallest depth, then smallest id). Every node
// that ends up outside the tree — a child with no surviving neighbor, its
// entire subtree, and any sibling that re-parented INTO a subtree that
// later stranded — is reported as an orphan, sorted by id. This is the
// failure-injection hook for experiment E13-style runs.
//
// Callers must feed the report into recall accounting rather than just
// shrinking the deployment: an orphaned subtree keeps sensing (its nodes
// are alive) but its readings can no longer reach the sink, so from the
// next epoch on the answer set silently loses those readings while the
// oracle keeps seeing them — the gap is exactly what stats.Score's recall
// column measures (pinned by mint's TestOrphanRecallAccounting).
func (t *Tree) RemoveNode(dead model.NodeID, links *Links) (orphans []model.NodeID) {
	if dead == t.Root {
		panic("topo: cannot remove the sink")
	}
	t.invalidateOrders()
	children := append([]model.NodeID(nil), t.Children[dead]...)
	parent := t.Parent[dead]
	// Detach dead from its parent.
	t.Children[parent] = removeID(t.Children[parent], dead)
	delete(t.Parent, dead)
	delete(t.Depth, dead)
	delete(t.Children, dead)
	detached := map[model.NodeID]bool{}
	for _, c := range children {
		if detached[c] {
			// Defensive: a child swept away by an earlier sibling's detach
			// must not be re-attached — that would resurrect half-deleted
			// state. (Unreachable today: an unprocessed child still hangs
			// off dead, never inside a sibling's subtree.)
			continue
		}
		best := model.NodeID(0)
		bestDepth := math.MaxInt
		found := false
		for _, nb := range links.Neighbors(c) {
			if nb == dead {
				continue
			}
			d, alive := t.Depth[nb]
			if !alive || inSubtreeOf(t, nb, c) {
				continue
			}
			if d < bestDepth || (d == bestDepth && nb < best) {
				best, bestDepth, found = nb, d, true
			}
		}
		if !found {
			// The whole subtree strands — including any earlier sibling
			// that re-parented into it. Before this reported only c, and a
			// sibling swept away here vanished from the tree unreported,
			// silently shrinking every later answer set.
			detachSubtree(t, c, detached)
			continue
		}
		t.Parent[c] = best
		t.Children[best] = insertSorted(t.Children[best], c)
		refreshDepths(t, c, bestDepth+1)
	}
	orphans = make([]model.NodeID, 0, len(detached))
	for id := range detached {
		orphans = append(orphans, id)
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })
	return orphans
}

func inSubtreeOf(t *Tree, candidate, root model.NodeID) bool {
	return t.Subtree(root)[candidate]
}

func detachSubtree(t *Tree, n model.NodeID, detached map[model.NodeID]bool) {
	for id := range t.Subtree(n) {
		delete(t.Parent, id)
		delete(t.Depth, id)
		delete(t.Children, id)
		detached[id] = true
	}
}

func refreshDepths(t *Tree, n model.NodeID, depth int) {
	t.Depth[n] = depth
	for _, c := range t.Children[n] {
		refreshDepths(t, c, depth+1)
	}
}

func removeID(s []model.NodeID, id model.NodeID) []model.NodeID {
	out := s[:0]
	for _, v := range s {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}

// GroupMaster returns, for each group, the lowest node in the tree that has
// the entire group in its subtree (the group's LCA). MINT's completeness
// pruning activates at and above this node.
func GroupMaster(t *Tree, p *Placement) map[model.GroupID]model.NodeID {
	members := p.GroupMembers()
	masters := make(map[model.GroupID]model.NodeID, len(members))
	for g, ms := range members {
		if len(ms) == 0 {
			continue
		}
		lca := ms[0]
		for _, m := range ms[1:] {
			lca = lowestCommonAncestor(t, lca, m)
		}
		masters[g] = lca
	}
	return masters
}

func lowestCommonAncestor(t *Tree, a, b model.NodeID) model.NodeID {
	da, db := t.Depth[a], t.Depth[b]
	for da > db {
		a = t.Parent[a]
		da--
	}
	for db > da {
		b = t.Parent[b]
		db--
	}
	for a != b {
		a = t.Parent[a]
		b = t.Parent[b]
	}
	return a
}
