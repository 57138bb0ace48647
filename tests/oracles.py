"""Independent reference implementations used to pin expected values.

Everything here is written from the definitions, favoring obviousness
over speed: BFS metrics, definition-level contractibility, flood-fill
hole finding (under each grid's adjacency, and as the library reads
king holes), exhaustive tree search, the election's round bound and a
certificate for it from two geodesics, and the lower bounds on colors:
a clique of each grid's k-th power and a brute-force chromatic number
on small windows.  It imports no library code.  Library code must agree
with these; the tests freeze the comparisons.
"""

from __future__ import annotations

from collections import deque

# Direction tables restated from the neighborhood definitions: four
# axis steps, the triangular extras (i+1,j-1)/(i-1,j+1), the king grid
# with both diagonal families.
DIRS = {
    "square": [(-1, 0), (0, -1), (1, 0), (0, 1)],
    "triangular": [(-1, 0), (0, -1), (1, -1), (1, 0), (0, 1), (-1, 1)],
    "king": [(-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1)],
}
CORNERS = [(-1, -1), (1, -1), (1, 1), (-1, 1)]


def kind_name(kind) -> str:
    return getattr(kind, "value", kind)


def adjacent(kind, a, b) -> bool:
    return (b[0] - a[0], b[1] - a[1]) in DIRS[kind_name(kind)]


def neighborhood(kind, p):
    return [(p[0] + di, p[1] + dj) for di, dj in DIRS[kind_name(kind)]]


def bfs_distance(kind, a, b, limit=64):
    """Unweighted shortest path in the infinite grid, BFS out from a."""
    if a == b:
        return 0
    seen = {a}
    frontier = deque([(a, 0)])
    while frontier:
        u, d = frontier.popleft()
        if d >= limit:
            break
        for v in neighborhood(kind, u):
            if v == b:
                return d + 1
            if v not in seen:
                seen.add(v)
                frontier.append((v, d + 1))
    raise AssertionError(f"no path within {limit} steps")


def connected(kind, cells) -> bool:
    """BFS over the induced subgraph; False on an empty set."""
    cells = set(cells)
    if not cells:
        return False
    dirs = DIRS[kind_name(kind)]
    start = next(iter(cells))
    seen = {start}
    frontier = deque([start])
    while frontier:
        i, j = frontier.popleft()
        for di, dj in dirs:
            v = (i + di, j + dj)
            if v in cells and v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == len(cells)


def def1_contractible(kind, s, p) -> bool:
    """Definition 1, verbatim: the extended neighborhood of p inside S
    induces a connected subgraph, and p has a free direct slot."""
    s = set(s)
    name = kind_name(kind)
    direct = [q for q in neighborhood(kind, p) if q in s]
    if len(direct) >= len(DIRS[name]):
        return False
    m = list(neighborhood(kind, p))
    if name == "square":
        m += [(p[0] + di, p[1] + dj) for di, dj in CORNERS]
    cells = [q for q in m if q in s]
    if not cells:
        return True
    return connected(kind, cells)


def king_simple(s, p) -> bool:
    """(8,4)-simple point of S on the king grid: Definition 1 holds, and
    the free cells of p's 3x3 window that are 4-adjacent to p all lie in
    one component of the window's free cells (p left out) under
    4-adjacency, so removing p opens no pocket of the 4-adjacent
    background."""
    if not def1_contractible("king", s, p):
        return False
    s = set(s)
    free = {
        (p[0] + di, p[1] + dj)
        for di in (-1, 0, 1)
        for dj in (-1, 0, 1)
        if (di, dj) != (0, 0) and (p[0] + di, p[1] + dj) not in s
    }
    touching = 0
    seen = set()
    for start in sorted(free):
        if start in seen:
            continue
        comp = {start}
        frontier = deque([start])
        while frontier:
            u = frontier.popleft()
            for v in neighborhood("square", u):
                if v in free and v not in comp:
                    comp.add(v)
                    frontier.append(v)
        seen |= comp
        if any(v in comp for v in neighborhood("square", p)):
            touching += 1
    return touching == 1


def holes(kind, cells):
    """Finite unoccupied components, by flood fill from a frame one cell
    beyond the bounding box."""
    cells = set(cells)
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    lo_i, hi_i = min(xs) - 1, max(xs) + 1
    lo_j, hi_j = min(ys) - 1, max(ys) + 1

    def inside(q):
        return lo_i <= q[0] <= hi_i and lo_j <= q[1] <= hi_j

    start = (lo_i, lo_j)
    exterior = {start}
    frontier = deque([start])
    while frontier:
        u = frontier.popleft()
        for v in neighborhood(kind, u):
            if inside(v) and v not in cells and v not in exterior:
                exterior.add(v)
                frontier.append(v)
    pockets = []
    seen = set()
    for i in range(lo_i, hi_i + 1):
        for j in range(lo_j, hi_j + 1):
            q = (i, j)
            if q in cells or q in exterior or q in seen:
                continue
            comp = {q}
            frontier = deque([q])
            while frontier:
                u = frontier.popleft()
                for v in neighborhood(kind, u):
                    if inside(v) and v not in cells and v not in exterior and v not in comp:
                        comp.add(v)
                        frontier.append(v)
            seen |= comp
            pockets.append(frozenset(comp))
    return sorted(pockets, key=min)


def border_cells(kind, cells):
    cells = set(cells)
    pocket_cells = set().union(*holes(kind, cells)) if holes(kind, cells) else set()
    out = set()
    for p in cells:
        for q in neighborhood(kind, p):
            if q not in cells and q not in pocket_cells:
                out.add(p)
                break
    return out


def grid_holes(kind, cells):
    """Holes as the library defines them.  On the king grid an
    8-connected set bounds a 4-connected background (Rosenfeld 1970), so
    its holes are the square grid's pockets of the same cells."""
    return holes("square" if kind_name(kind) == "king" else kind, cells)


def grid_border(kind, cells):
    """Cells with a neighbour, under the grid's own adjacency, that is
    free and in no pocket of `grid_holes`."""
    cells = set(cells)
    pocket_cells = set().union(*grid_holes(kind, cells))
    return {
        p
        for p in cells
        if any(q not in cells and q not in pocket_cells for q in neighborhood(kind, p))
    }


def intra_distances(kind, cells, src):
    cells = set(cells)
    dist = {src: 0}
    frontier = deque([src])
    while frontier:
        u = frontier.popleft()
        for v in neighborhood(kind, u):
            if v in cells and v not in dist:
                dist[v] = dist[u] + 1
                frontier.append(v)
    return dist


def radius_to_border(kind, cells) -> int:
    cells = set(cells)
    targets = border_cells(kind, cells)
    best = None
    for u in cells:
        dist = intra_distances(kind, cells, u)
        worst = max(dist[v] for v in targets)
        if best is None or worst < best:
            best = worst
    return best


def max_tree_height(kind, cells) -> int:
    """mtree via the longest induced path.

    An induced tree's best-root height is ceil(diameter/2), its diameter
    path is itself induced (an induced subgraph of an induced subgraph,
    and a tree has no chords), and an induced path is an induced tree of
    diameter equal to its length; so mtree = ceil(L/2) for L the longest
    induced path, found by depth-first extension.
    """
    cells = set(cells)
    adj = {p: {q for q in neighborhood(kind, p) if q in cells} for p in cells}
    best = 0

    def extend(path_set, last, length):
        nonlocal best
        if length > best:
            best = length
        for w in adj[last]:
            if w not in path_set and adj[w] & path_set == {last}:
                path_set.add(w)
                extend(path_set, w, length + 1)
                path_set.remove(w)

    for p in cells:
        extend({p}, p, 0)
    return -(-best // 2)


def round_bound(kind, r, mt) -> int:
    """b_G(r, mtree), the paper's bound on the election's active rounds."""
    return 2 * (r + mt) + 2 if kind_name(kind) == "square" else r + mt + 1


def round_bound_certificate(kind, cells) -> int:
    """A lower bound on b_G(r, mtree) from two double sweeps.

    With d the distance within the cells: for border particles a and b,
    r >= ceil(d(a, b)/2), since a centre lies within r of both; for any
    particles x and y, mtree >= ceil(d(x, y)/2), since a shortest path
    is an induced path.  b_G grows with both, so a run within this bound
    is within the paper's.  A double sweep BFS's from the least member to
    the farthest one, then from there to the farthest again.
    """
    cells = set(cells)

    def sweep(members):
        far = min(members)
        for _ in range(2):
            dist = intra_distances(kind, cells, far)
            far = max(members, key=lambda p: (dist[p], p))
        return dist[far]

    r = -(-sweep(grid_border(kind, cells)) // 2)
    mt = -(-sweep(cells) // 2)
    return round_bound(kind, r, mt)


def coloring_valid(color, kind, k, span=12) -> bool:
    """Brute distance-k validity of a color function over a window.

    Every grid step moves each coordinate by at most one, so pairs with
    max(|di|, |dj|) > k are already safe and only nearby pairs need a
    BFS distance.
    """
    pts = [(i, j) for i in range(span) for j in range(span)]
    for a in pts:
        for b in pts:
            if b <= a or color(*a) != color(*b):
                continue
            if max(abs(b[0] - a[0]), abs(b[1] - a[1])) > k:
                continue
            if bfs_distance(kind, a, b) <= k:
                return False
    return True


def lattice_spread(kind, p, q, s, k) -> bool:
    """No nonzero vector a*(p, 0) + b*(s, q), a and b integers, has
    bfs_distance <= k.

    Such a lattice's cosets color the distance-k power: two cells share
    a coset exactly when their difference is a lattice vector.  Every
    grid step moves each coordinate by at most one, so only vectors with
    max(|i|, |j|) <= k need a BFS distance.  (i, j) is a lattice vector
    when b = j/q is an integer and so is a = (i - b*s)/p.
    """
    for i in range(-k, k + 1):
        for j in range(-k, k + 1):
            if (i, j) == (0, 0) or j % q or (i - j // q * s) % p:
                continue
            if bfs_distance(kind, (0, 0), (i, j)) <= k:
                return False
    return True


def ball(kind, centre, radius):
    """The cells within `radius` steps of `centre`, by BFS."""
    seen = frontier = {centre}
    for _ in range(radius):
        frontier = {v for u in frontier for v in neighborhood(kind, u)} - seen
        seen = seen | frontier
    return seen


# Mutually adjacent centres whose balls of radius (k-1)/2 are cliques of
# the k-th power for odd k: an edge, the 2x2 block, the two triangles.
CLIQUE_CENTRES = {
    "square": [[(0, 0), (0, 1)]],
    "king": [[(0, 0), (0, 1), (1, 0), (1, 1)]],
    "triangular": [[(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (1, -1)]],
}


def clique_lower_bound(kind, k) -> int:
    """The size of a clique of the grid's k-th power: cells pairwise
    within distance k, which must all take different colors.

    For even k the candidate is the ball of radius k/2 about (0, 0); for
    odd k, the cells within (k-1)/2 of each of CLIQUE_CENTRES.  Each
    candidate counts only once every member's ball of radius k holds
    all of it, and the largest that does is returned.
    """
    centre_sets = [[(0, 0)]] if k % 2 == 0 else CLIQUE_CENTRES[kind_name(kind)]
    best = 0
    for centres in centre_sets:
        cells = set().union(*(ball(kind, c, k // 2) for c in centres))
        if all(cells <= ball(kind, p, k) for p in cells):
            best = max(best, len(cells))
    return best


def min_colors_bruteforce(kind, k, window) -> int:
    """Exact chromatic number of the k-th power restricted to a window.

    Exhaustive search, so the window is capped at 5x5 cells and k at 2.
    Useful only as a desk-scale lower-bound check on the color count.
    """
    wi, wj = window
    if wi < 1 or wj < 1 or wi * wj > 25 or k > 2 or k < 1:
        raise ValueError("brute force limited to windows up to 5x5 and k <= 2")
    cells = [(i, j) for i in range(wi) for j in range(wj)]
    n = len(cells)
    adj = [set() for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            if bfs_distance(kind, cells[x], cells[y]) <= k:
                adj[x].add(y)
                adj[y].add(x)
    # color vertices in decreasing-degree order so dense spots fail fast
    order = sorted(range(n), key=lambda v: -len(adj[v]))

    def colorable(limit: int) -> bool:
        assigned: dict[int, int] = {}

        def place(idx: int) -> bool:
            if idx == n:
                return True
            v = order[idx]
            used = {assigned[u] for u in adj[v] if u in assigned}
            # symmetry break: allow at most one brand-new color
            fresh = min(set(range(limit)) - set(assigned.values()), default=None)
            for c in range(limit):
                if c in used:
                    continue
                if fresh is not None and c > fresh:
                    break
                assigned[v] = c
                if place(idx + 1):
                    return True
                del assigned[v]
            return False

        return place(0)

    for limit in range(1, n + 1):
        if colorable(limit):
            return limit
    raise AssertionError("unreachable")

