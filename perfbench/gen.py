"""Seeded input generator: the instance list of each workload, as files.

Every workload cycles a fixed list of instances.  The list is drawn from the
workload seed alone, so the same seed always gives byte-identical files.
Each slot of a list fixes the base order ``n``, the edge count ``m`` and the
multiset of crown orders; the seed picks the edges and which crown gets
which order.  The corona order ``N`` of every slot is therefore the same for
every seed, and only the graph structure varies.  That keeps run-to-run
cost steady while the seed still changes the inputs.

The program under test sees only the files written here: one edge list per
base graph, one per distinct crown, and a spec file naming them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

Edges = tuple[tuple[int, int], ...]

SUITE_CASES = 5
SUITE_SEEDS_PER_LIST = 100


@dataclass(frozen=True)
class SimpleGraph:
    n: int
    edges: Edges


@dataclass
class Instance:
    """One entry of a workload's instance list and the argv that runs it."""

    ident: str
    kind: str
    argv: list[str]
    base: SimpleGraph | None = None
    crowns: tuple[SimpleGraph, ...] = ()
    suite_seed: int | None = None
    # Filled in for suite instances once their report has been read.
    suite_coronas: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.base.n if self.base else 0

    @property
    def m(self) -> int:
        return len(self.base.edges) if self.base else 0

    @property
    def order(self) -> int:
        """Corona order N = n + m + sum of crown orders."""
        return self.n + self.m + sum(c.n for c in self.crowns)

    def pairs(self) -> int:
        """Unordered vertex pairs one op covers (summed over suite coronas)."""
        if self.kind == "suite":
            return sum(v * (v - 1) // 2 for v in self.suite_coronas)
        return self.order * (self.order - 1) // 2

    def record(self) -> dict:
        out = {"id": self.ident, "kind": self.kind, "argv": self.argv}
        if self.kind == "suite":
            out.update(seed=self.suite_seed, corona_orders=self.suite_coronas)
        else:
            out.update(
                n=self.n, m=self.m, N=self.order, crown_sizes=[c.n for c in self.crowns]
            )
        return out


def cycle(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple(sorted([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])))


def path(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def random_connected(rng: random.Random, n: int, m: int) -> SimpleGraph:
    """Random attachment tree plus ``m - (n - 1)`` distinct extra edges."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no connected simple graph with n={n}, m={m}")
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    spare = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges.update(rng.sample(spare, m - len(edges)))
    return SimpleGraph(n, tuple(sorted(edges)))


def random_crowns(rng: random.Random, count: int, t_max: int) -> tuple[SimpleGraph, ...]:
    """``count`` crowns whose orders cycle 0..t_max, shuffled; edges at 1/2.

    Fixing the multiset of orders fixes the corona order for a slot.
    """
    sizes = [k % (t_max + 1) for k in range(count)]
    rng.shuffle(sizes)
    return tuple(
        SimpleGraph(
            t,
            tuple((u, v) for u in range(t) for v in range(u + 1, t) if rng.random() < 0.5),
        )
        for t in sizes
    )


def _edge_text(g: SimpleGraph) -> str:
    return "".join([f"{g.n}\n"] + [f"{u} {v}\n" for u, v in g.edges])


def write_spec(root: Path, ident: str, kind: str, base: SimpleGraph, crowns) -> Path:
    """Write base, deduplicated crowns and the spec file; return the spec path."""
    folder = root / ident
    folder.mkdir(parents=True, exist_ok=True)
    (folder / "base.edges").write_text(_edge_text(base), encoding="ascii")
    lines = [f"kind = {kind}", "base = base.edges"]
    names: dict[SimpleGraph, str] = {}
    for k, crown in enumerate(crowns):
        if crown.n == 0:
            continue
        if crown not in names:
            names[crown] = f"crown{len(names)}.edges"
            (folder / names[crown]).write_text(_edge_text(crown), encoding="ascii")
        lines.append(f"crown.{k} = {names[crown]}")
    spec = folder / "corona.spec"
    spec.write_text("\n".join(lines) + "\n", encoding="ascii")
    return spec


def corona_instance(root, ident, kind, base, crowns, argv_tail) -> Instance:
    spec = write_spec(root, ident, kind, base, crowns)
    return Instance(ident, kind, argv_tail[:1] + [str(spec)] + argv_tail[1:], base, crowns)


# Slot lists.  Each list has 15 slots: with whole cycles of 15, the median
# and the 90th percentile of op times fall mid-way into one slot's block of
# repeats instead of on the boundary between two slots.  Sizes are
# interleaved so that any run of consecutive slots mixes small and large.

SLOTS = 15


def _crowned(rng, root, ident, kind, base, t_max, argv):
    """Hang seeded random crowns on every vertex (r_vertex) or edge (r_edge)."""
    slots = base.n if kind == "r_vertex" else len(base.edges)
    return corona_instance(root, ident, kind, base, random_crowns(rng, slots, t_max), argv)


def _resist_closed(rng, root):
    argv = ["resist", "--all", "--method", "closed", "--format", "csv"]
    sizes = (20, 25, 30, 35, 40)
    out = []
    for i in range(SLOTS):
        fam, n = ("cycle", "rv", "re")[i % 3], sizes[(i // 3 + 2 * (i % 3)) % 5]
        ident = f"{i:02d}-{fam}{n}"
        if fam == "cycle":
            crowns = tuple(SimpleGraph(2, ((0, 1),)) for _ in range(n))
            out.append(corona_instance(root, ident, "r_vertex", cycle(n), crowns, argv))
        else:
            kind = "r_vertex" if fam == "rv" else "r_edge"
            base = random_connected(rng, n, n + n // 4)
            out.append(_crowned(rng, root, ident, kind, base, 3, argv))
    return out


def _resist_oracle(rng, root):
    argv = ["resist", "--all", "--method", "oracle", "--format", "csv"]
    out = []
    for i in range(SLOTS):
        kind, n = ("r_vertex", "r_edge")[i % 2], (8, 12, 16)[i % 3]
        base = random_connected(rng, n, n + n // 4)
        out.append(_crowned(rng, root, f"{i:02d}-{kind}{n}", kind, base, 3, argv))
    return out


def _kf_closed(rng, root):
    argv = ["kf", "--method", "closed", "--format", "json", "--terms"]
    out = []
    for i in range(SLOTS):
        kind, n = ("r_vertex", "r_edge")[(i // 4) % 2], (40, 60, 80, "P80")[i % 4]
        # P80 is the long path: its Fiedler value is tiny (near-degenerate).
        base = path(80) if n == "P80" else random_connected(rng, n, n + n // 5)
        out.append(_crowned(rng, root, f"{i:02d}-{kind}{n}", kind, base, 4, argv))
    return out


def _suite(rng, root):
    # Suite cost varies a lot from one suite seed to the next, so this list
    # is long: spread across workload seeds falls with the number of
    # distinct suite seeds a window sees.  Slot 0, which is also the
    # warm-up op inside setup_s, is the suite's default seed 0 in every
    # list, so that set-up time does not vary with the workload seed.
    out = []
    for i in range(SUITE_SEEDS_PER_LIST):
        s = rng.randrange(1_000_000) if i else 0
        argv = ["suite", "--seed", str(s), "--cases", str(SUITE_CASES), "--format", "json"]
        out.append(Instance(f"{i:02d}-suite{s}", "suite", argv, suite_seed=s))
    return out


WORKLOADS = {
    "resist_closed": _resist_closed,
    "resist_oracle": _resist_oracle,
    "kf_closed": _kf_closed,
    "suite": _suite,
}


def generate(workload: str, seed: int, root: Path) -> list[Instance]:
    """Write the instance files of ``workload`` under ``root``; return the list."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, Path(root))
