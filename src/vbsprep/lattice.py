"""Lattice graphs, sublattice coloring, and the site -> data qubit assignment.

A lattice is a multigraph of sites and links.  Every link carries one
valence bond, realized on one qubit at each endpoint.  Open chains keep a
fixed-spin dangling qubit at each end so that every site encodes the same
local spin; all other lattices give boundary sites a smaller local spin
equal to half their coordination number.  The assignment is the same for
every route: it lays out the data qubits only, and each route's circuit
builder places its own ancillas after them.
"""
from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property

from .errors import ConfigError, NotBipartiteError

BOUNDARY_OPEN = "open_chain"
BOUNDARY_RING = "ring"
BOUNDARY_EXPLICIT = "explicit_graph"

BOUNDARIES = (BOUNDARY_OPEN, BOUNDARY_RING, BOUNDARY_EXPLICIT)

SPIN_UP = "up"
SPIN_DOWN = "down"


@dataclass(frozen=True)
class Lattice:
    n_sites: int
    links: tuple[tuple[int, int], ...]
    boundary: str = BOUNDARY_EXPLICIT
    boundary_spins: tuple[str, str] | None = None
    name: str = "lattice"

    def __post_init__(self):
        if self.boundary not in BOUNDARIES:
            raise ConfigError(f"unknown lattice boundary {self.boundary!r}; expected one of {BOUNDARIES}")
        if self.n_sites < 1:
            raise ConfigError("a lattice needs at least one site")
        for link in self.links:
            if len(link) != 2:
                raise ConfigError(f"link {list(link)} must join exactly two sites")
            a, b = link
            if not (0 <= a < self.n_sites and 0 <= b < self.n_sites):
                raise ConfigError(f"link ({a},{b}) references a missing site")
            if a == b:
                raise ConfigError("self-loops are not allowed")
        if self.boundary_spins is not None and self.boundary != BOUNDARY_OPEN:
            raise ConfigError(f"boundary_spins are read only on an open chain; lattice {self.name!r} has "
                              f"boundary {self.boundary!r} and boundary_spins {list(self.boundary_spins)}")
        if self.boundary == BOUNDARY_OPEN:
            if self.n_sites < 2:
                raise ConfigError(f"an open chain needs at least 2 sites, got {self.n_sites}")
            if self.boundary_spins is None or len(self.boundary_spins) != 2:
                raise ConfigError(f"open chains need two boundary_spins, got {self.boundary_spins!r}")
            for spin in self.boundary_spins:
                if spin not in (SPIN_UP, SPIN_DOWN):
                    raise ConfigError(f"boundary spin must be up/down, got {spin!r}")
        if self.boundary != BOUNDARY_EXPLICIT:
            self._check_connected()

    def _check_connected(self):
        """A ring's or an open chain's links must connect every site.

        The closed-form norms, `boundary_slots` and the mps route all read the
        label as one chain.  At 2S=2 `uniform_twice_spin` fixes each site's link
        count, so connected links are then one cycle or one path from site 0 to
        site n-1; other spins read the label only for the open chain's end slots.
        """
        adj = self._adjacency()
        reached, stack = {0}, [0]
        while stack:
            for v in adj[stack.pop()] - reached:
                reached.add(v)
                stack.append(v)
        if len(reached) < self.n_sites:
            given = ", ".join(f"{a}-{b}" for a, b in self.links) or "none"
            raise ConfigError(f"boundary {self.boundary!r} needs links that connect every site; "
                              f"lattice {self.name!r} has the links {given}")

    def _adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {s: set() for s in range(self.n_sites)}
        for a, b in self.links:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    @cached_property
    def _coordinations(self) -> Counter:
        """Each site's link count, from one pass over the links."""
        return Counter(site for link in self.links for site in link)

    def coordination(self, site: int) -> int:
        return self._coordinations[site]

    def boundary_slots(self, site: int) -> int:
        """Dangling fixed spin-1/2 slots (open-chain ends only)."""
        if self.boundary == BOUNDARY_OPEN and site in (0, self.n_sites - 1):
            return 1
        return 0

    def site_twice_spin(self, site: int) -> int:
        """2S of the site = number of qubits encoding it."""
        return self.coordination(site) + self.boundary_slots(site)

    def uniform_twice_spin(self) -> int:
        values = {self.site_twice_spin(s) for s in range(self.n_sites)}
        if len(values) != 1:
            raise ConfigError(f"lattice has mixed local spins 2S in {sorted(values)}")
        return values.pop()

    def sublattice(self) -> tuple[str, ...]:
        """2-coloring of the sites; raises NotBipartiteError on an odd cycle."""
        color: dict[int, str] = {}
        adj = self._adjacency()
        for start in range(self.n_sites):
            if start in color:
                continue
            color[start] = "A"
            stack = [start]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in color:
                        color[v] = "B" if color[u] == "A" else "A"
                        stack.append(v)
                    elif color[v] == color[u]:
                        raise NotBipartiteError(
                            f"odd cycle through sites {u} and {v}: lattice is not bipartite"
                        )
        return tuple(color[s] for s in range(self.n_sites))

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "sites": list(range(self.n_sites)),
            "links": [list(l) for l in self.links],
            "boundary": self.boundary,
            "boundary_spins": list(self.boundary_spins) if self.boundary_spins else None,
        }


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_chain(n_sites: int, boundary: str, boundary_spins: tuple[str, str] = (SPIN_UP, SPIN_UP)) -> Lattice:
    """1D chain; `boundary` is "open" or "ring"."""
    if n_sites < 2:
        raise ConfigError("a chain needs at least 2 sites")
    if boundary in ("open", BOUNDARY_OPEN):
        links = tuple((i, i + 1) for i in range(n_sites - 1))
        return Lattice(n_sites, links, BOUNDARY_OPEN, tuple(boundary_spins), name=f"chain:{n_sites}:open")
    if boundary in ("ring", BOUNDARY_RING):
        links = tuple((i, (i + 1) % n_sites) for i in range(n_sites))
        return Lattice(n_sites, links, BOUNDARY_RING, None, name=f"chain:{n_sites}:ring")
    raise ConfigError(f"unknown chain boundary {boundary!r}")


def build_three_link_pair() -> Lattice:
    """Two sites joined by three links: the minimal coordination-3 cell."""
    return Lattice(2, ((0, 1), (0, 1), (0, 1)), BOUNDARY_EXPLICIT, name="three-link-pair")


def build_three_link_ring(n_sites: int) -> Lattice:
    """Even ring with alternating double/single links; every coordination is 3."""
    if n_sites < 2 or n_sites % 2:
        raise ConfigError("three-link ring needs an even site count >= 2")
    if n_sites == 2:
        return build_three_link_pair()
    links: list[tuple[int, int]] = []
    for i in range(n_sites):
        j = (i + 1) % n_sites
        links.append((i, j))
        if i % 2 == 0:
            links.append((i, j))
    return Lattice(n_sites, tuple(links), BOUNDARY_EXPLICIT, name=f"three-link-ring:{n_sites}")


def build_honeycomb_patch(rows: int, cols: int) -> Lattice:
    """Brick-wall honeycomb patch of rows x cols hexagons.

    Vertices live on integer (x, y); each hexagon is a 2x1 brick with
    vertical edges at its two ends.  Interior sites have coordination 3.
    """
    if rows < 1 or cols < 1:
        raise ConfigError("honeycomb patch needs rows, cols >= 1")
    verts: dict[tuple[int, int], int] = {}
    edges: set[tuple[int, int, int, int]] = set()

    def vid(x, y):
        if (x, y) not in verts:
            verts[(x, y)] = len(verts)
        return verts[(x, y)]

    for r in range(rows):
        for c in range(cols):
            x0, y0 = 2 * c + (r % 2), r
            for dx in (0, 1):
                edges.add((x0 + dx, y0, x0 + dx + 1, y0))
                edges.add((x0 + dx, y0 + 1, x0 + dx + 1, y0 + 1))
            edges.add((x0, y0, x0, y0 + 1))
            edges.add((x0 + 2, y0, x0 + 2, y0 + 1))
    for x1, y1, x2, y2 in sorted(edges):
        vid(x1, y1), vid(x2, y2)
    links = tuple(
        (verts[(x1, y1)], verts[(x2, y2)]) for x1, y1, x2, y2 in sorted(edges)
    )
    return Lattice(len(verts), links, BOUNDARY_EXPLICIT, name=f"honeycomb:{rows}:{cols}")


def lattice_from_json(text: str) -> Lattice:
    """Load {sites: [...], links: [[a,b],...], boundary: ..., boundary_spins: ...}."""
    doc = json.loads(text)
    try:
        sites = doc["sites"]
        links = tuple(tuple(l) for l in doc["links"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad lattice document: {exc}") from exc
    for k, link in enumerate(links):
        if any(type(v) is not int for v in link):  # a float, bool or string names no site
            raise ConfigError(f"lattice link {k} {json.dumps(link)} must hold integer site ids")
    if not isinstance(sites, list):
        raise ConfigError(f"lattice 'sites' must be a list of site ids, got {sites!r}")
    boundary = doc.get("boundary", BOUNDARY_EXPLICIT)
    spins = doc.get("boundary_spins")
    if spins is not None and not isinstance(spins, list):
        raise ConfigError(f"lattice 'boundary_spins' must be a list of two spins, up or down; got {json.dumps(spins)}")
    return Lattice(
        len(sites),
        links,
        boundary,
        tuple(spins) if spins else None,
        name=doc.get("name", "file-lattice"),
    )


# ---------------------------------------------------------------------------
# qubit assignment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SiteEncoding:
    """Map from lattice structure to the data qubits 0..n_data_qubits-1.

    site_qubits[s] lists site s's data qubits ordered by incident link;
    link_qubits[k] gives (qubit at link[k][0], qubit at link[k][1]);
    boundary_qubits lists (qubit, "up"/"down") for fixed dangling spins.
    A route's ancillas are its circuit's alone: each builder places them
    from n_data_qubits up, and the circuit's width counts them.
    """

    lattice: Lattice
    site_qubits: tuple[tuple[int, ...], ...]
    link_qubits: tuple[tuple[int, int], ...]
    boundary_qubits: tuple[tuple[int, str], ...]
    n_data_qubits: int


def assign_qubits(lattice: Lattice) -> SiteEncoding:
    """Allocate one data qubit per (site, link) incidence and per dangling spin, site by site."""
    site_lists: list[list[int]] = [[] for _ in range(lattice.n_sites)]
    link_pairs: list[tuple[int, int]] = []
    boundary: list[tuple[int, str]] = []
    counter = 0

    # Left dangling qubit first so that site qubit order matches the chain
    # drawing (dangling, then links left to right).
    if lattice.boundary == BOUNDARY_OPEN:
        site_lists[0].append(counter)
        boundary.append((counter, lattice.boundary_spins[0]))
        counter += 1

    by_site_pending: dict[int, list[int]] = {s: [] for s in range(lattice.n_sites)}
    for k, (a, b) in enumerate(lattice.links):
        by_site_pending[a].append(k)
        by_site_pending[b].append(k)

    link_slots: dict[tuple[int, int], int] = {}
    for s in range(lattice.n_sites):
        for k in by_site_pending[s]:
            link_slots[(s, k)] = counter
            site_lists[s].append(counter)
            counter += 1
        if lattice.boundary == BOUNDARY_OPEN and s == lattice.n_sites - 1:
            site_lists[s].append(counter)
            boundary.append((counter, lattice.boundary_spins[1]))
            counter += 1
    link_pairs = [
        (link_slots[(a, k)], link_slots[(b, k)]) for k, (a, b) in enumerate(lattice.links)
    ]
    return SiteEncoding(
        lattice=lattice,
        site_qubits=tuple(tuple(v) for v in site_lists),
        link_qubits=tuple(link_pairs),
        boundary_qubits=tuple(boundary),
        n_data_qubits=counter,
    )


# ---------------------------------------------------------------------------
# coupling maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingMap:
    """Qubits 0..n_qubits-1 and the pairs (a, b), a < b, that a CNOT may join; all-to-all devices need no map."""

    n_qubits: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for a, b in self.edges:  # each edge joins two qubits of the map: a SWAP along it needs no further check
            if not (0 <= a < self.n_qubits and 0 <= b < self.n_qubits) or a == b:
                raise ConfigError(f"coupling edge ({a}, {b}) must join two distinct qubits of the map")
        if not self.connected_subset(range(self.n_qubits)):
            raise ConfigError("coupling map must be connected")

    def connected_subset(self, qubits) -> bool:
        qs = set(qubits)
        return len(qs) <= 1 or len(self.component(min(qs), qs)) == len(qs)

    def component(self, start: int, qubits) -> set[int]:
        """The qubits of `qubits` that `start` reaches through coupled qubits of `qubits`, `start` included."""
        qs, seen, stack = set(qubits), {start}, [start]
        while stack:
            for v in self.neighbors(stack.pop()):
                if v in qs and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def are_coupled(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    @cached_property
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        """Each coupled qubit's neighbours, ascending; built on first use, once per map."""
        adj: dict[int, set[int]] = {}
        for a, b in self.edges:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        return {q: tuple(sorted(vs)) for q, vs in adj.items()}

    def neighbors(self, q: int) -> tuple[int, ...]:
        return self._adjacency.get(q, ())

    @cached_property
    def _trees(self) -> dict[int, dict[int, tuple[int | None, int]]]:
        """Each source's BFS tree (qubit -> its parent and its distance), built whole once: a BFS stopped at b records the same parents."""
        return {}

    def _tree(self, a: int) -> dict[int, tuple[int | None, int]]:
        tree = self._trees.get(a)
        if tree is None:
            tree, queue = {a: (None, 0)}, deque([a])
            while queue:
                u = queue.popleft()
                for v in self.neighbors(u):
                    if v not in tree:
                        tree[v] = (u, tree[u][1] + 1)
                        queue.append(v)
            self._trees[a] = tree  # only once whole: another thread never reads a tree in the making
        return tree

    def _distance(self, a: int, b: int) -> int:
        """The number of couplings on a shortest path from a to b, read from a's tree."""
        return self._tree(a)[b][1]

    def shortest_path(self, a: int, b: int) -> list[int]:
        tree = self._tree(a)
        if b not in tree:
            raise ConfigError(f"no path between qubits {a} and {b}")
        path = [b]
        while path[-1] != a:
            path.append(tree[path[-1]][0])
        return path[::-1]


def linear_coupling(n_qubits: int) -> CouplingMap:
    edges = frozenset((i, i + 1) for i in range(n_qubits - 1))
    return CouplingMap(n_qubits, edges)


def heavy_hex_patch(n_sets: int = 1) -> CouplingMap:
    """Row segment of a heavy-hex layout: a line with one bridge qubit per set.

    Per six-qubit set k the line spans positions 9k .. 9k+6 (set k+1 reuses
    the tail positions as its lead-in) and a bridge qubit hangs off position
    9k+5.  Declared geometry for the routing and displacement tests.
    """
    if n_sets < 1:
        raise ConfigError("need at least one set")
    line_len = 7 + 9 * (n_sets - 1)
    edges = {(i, i + 1) for i in range(line_len - 1)}
    n = line_len
    for k in range(n_sets):
        anchor = 9 * k + 5
        edges.add((anchor, n))
        n += 1
    return CouplingMap(n, frozenset(tuple(sorted(e)) for e in edges))
