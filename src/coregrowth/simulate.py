"""High-throughput simulation of the infinite growth process.

The k-rectangle factorization projects each growth step of the infinite
chain onto a move of the finite chain (``verify_projection`` certifies this
at small sizes), so a trajectory is simulated in O(1) per step.  The k+1
labels of the bead classes move as a TASEP on the ring: each move jumps one
label over its neighbour, and a reduced state's word (``tasep.alpha_inv``)
fixes where every label sits, up to a rotation of the ring.
``_sampling_tables`` certifies by ``tasep.verify_tasep_equivalence`` that
the moves out of each state are the jumps of its word; words keep k+1
last, so only a jump over k+1 turns the ring, by one slot, and the kernel
walks the k!-state reduced chain alone.  Each draw becomes an exact
symbol, its rank among the thresholds of all states, and m consecutive
symbols one composed symbol, so one table lookup takes m steps; per block
the loop only draws, walks and counts moves.
The rectangle ledger, the state occupancy, the per-residue bead frontiers
of the growing core and the final rotation are linear in those counts and
are derived from them afterwards.  The core boundary at step n is
reconstructed from the frontiers without ever materializing the million-row
partition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import getitem, itemgetter
from typing import TYPE_CHECKING, NamedTuple

from coregrowth import chain as chain_mod
from coregrowth.partitions import (
    Parts,
    rectangle_area,
    reduce_rectangles,
)
from coregrowth.posets import enumerate_bounded
from coregrowth.reporting import THEOREM, InvariantError, Report, UsageError
from coregrowth.tasep import alpha_inv, jump, verify_tasep_equivalence

if TYPE_CHECKING:
    import numpy as np  # imported where used: the CLI loads this module eagerly


OUTPUT_KEYS = {"boundary_csv", "rho_csv", "occupancy_csv", "svg", "report_json"}


@dataclass
class SimConfig:
    k: int
    n: int
    seed: int = 0
    checkpoint_every: int = 0
    boundary_samples: int = 2000
    outputs: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, obj) -> "SimConfig":
        """The one constructor of CLI flags and config JSON: keys, then values."""
        if not isinstance(obj, dict):
            raise UsageError("config must be a JSON object")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key in ("k", "n"):
            if key not in obj:
                raise UsageError(f"config key {key!r} is required")
        config = cls(**obj)
        config.validate()
        return config

    @classmethod
    def from_json(cls, text: str) -> "SimConfig":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(obj)

    def validate(self) -> None:
        """Raise UsageError unless the run is well defined."""
        for f in fields(self):
            value = getattr(self, f.name)
            # Annotations are strings here.  bool, float and str are refused, not coerced.
            if f.type == "int" and type(value) is not int:
                raise UsageError(f"{f.name} must be an integer, not {value!r}")
        if self.k < 2:
            raise UsageError("k must be at least 2")
        if self.n < 1:
            raise UsageError("n must be positive")
        if self.seed < 0:
            raise UsageError("seed must be non-negative")
        if self.checkpoint_every < 0 or self.boundary_samples < 2:
            raise UsageError("checkpoint_every must be >= 0 and boundary_samples >= 2")
        if not isinstance(self.outputs, dict):
            raise UsageError("outputs must map output keys to paths")
        bad = set(self.outputs) - OUTPUT_KEYS
        if bad:
            raise UsageError(f"unknown output keys: {sorted(bad)} (known: {sorted(OUTPUT_KEYS)})")
        if not all(isinstance(path, str) for path in self.outputs.values()):
            raise UsageError("output paths must be strings")


@dataclass
class SimResult:
    config: SimConfig
    final_state: Parts
    ledger: tuple[int, ...]
    occupancy: np.ndarray  # visits per state, factorial-index order
    frontiers: tuple[int, ...]
    boundary: list[tuple[float, float]]
    checkpoints: list[tuple[int, int, tuple[int, ...]]]

    @property
    def rho_hat(self) -> np.ndarray:
        """The rate of each rectangle type: its ledger count over n."""
        import numpy as np

        return np.array(self.ledger, dtype=float) / self.config.n


# The most entries (reduced states x composed symbols) of the composed step
# table.  m steps make one symbol for the largest m with k! * G**m at or
# below it, so the table and its rows stay within about a megabyte; from
# k = 5 on one step already exceeds it and m = 1.
COMPOSED_ENTRIES = 2**15


class WalkTables(NamedTuple):
    """The reduced chain as step tables indexed by exact symbols.

    Reduced moves are numbered by state, then in ``mc.moves`` order; move j
    is ``moves[j]`` (target, removed rectangle or 0, grown column,
    jumped-over label).

    A draw u is symbol g, the number of ``breaks`` at or below u: the
    sorted thresholds of all reduced states, followed by ``depth``
    infinities; ``below`` indexes them by bucket for ``_symbols``.  As every
    threshold is a break, from state s symbol g picks move
    ``step_move[s, g]``, the one ``bisect_right`` picks from the cumulative
    rates of s's moves, the last of them raised above 1.
    The symbols g_1..g_m of m consecutive draws make one composed symbol
    c = sum of g_t G**(m-t), G symbols in all; from s it fires the moves
    ``composed_move[s * G**m + c]`` in order, and the last one's target is
    the state reached.
    """

    moves: list[tuple[int, int, int, int]]
    breaks: np.ndarray
    below: np.ndarray
    depth: int
    step_move: np.ndarray
    m: int
    composed_move: np.ndarray


def _sampling_tables(mc: chain_mod.MarkovChain) -> WalkTables:
    """Read each move of the reduced chain off its state's word, into step tables.

    Unless ``tasep.verify_tasep_equivalence`` certifies that the moves out of
    each state are the jumps of its word, ``InvariantError`` is raised.  A
    move grows ``column``, and ``tasep.jump`` of that label names the label
    it jumps over.  The tables take the narrowest integer dtypes.
    """
    import numpy as np

    certificate = verify_tasep_equivalence(mc)
    if not certificate.passed:
        raise InvariantError(f"the chain is not a TASEP jump chain: {certificate.witness}")
    moves, cums = [], []
    for state, row in zip(mc.states, mc.moves):
        word = alpha_inv(state, mc.k)
        for m in row:
            label = jump(word, m.column)[0]
            moves.append((mc.index[m.target], m.removed or 0, m.column, label))
        cums.append(list(accumulate(float(m.rate) for m in row)))
        cums[-1][-1] = 1.0 + 1e-12  # guard the top bucket
    states = len(cums)
    breaks = np.array(sorted({c for row in cums for c in row}))
    symbols = len(breaks)
    step_move = np.empty((states, symbols), np.min_scalar_type(len(moves) - 1))
    first = 0
    for s, row in enumerate(cums):
        step_move[s] = np.searchsorted(row, breaks) + first
        first += len(row)
    targets = np.array([move[0] for move in moves], np.min_scalar_type(states - 1))
    m = 1
    while states * symbols ** (m + 1) <= COMPOSED_ENTRIES:
        m += 1
    composed_move = step_move[:, :, None]
    for _ in range(m - 1):
        reached = targets[composed_move[:, :, -1]]
        composed_move = np.concatenate(
            (
                np.repeat(composed_move, symbols, axis=1),
                step_move[reached].reshape(states, -1, 1),
            ),
            axis=2,
        )
    # 8 or more buckets per break; a power of two makes u * buckets exact
    buckets = 8 << (symbols - 1).bit_length()
    below = np.searchsorted(breaks, np.arange(buckets + 1) / buckets)
    depth = int(np.diff(below).max())
    return WalkTables(
        moves=moves,
        breaks=np.concatenate((breaks, np.full(depth, np.inf))),
        below=below[:-1].astype(np.min_scalar_type(symbols + depth)),
        depth=depth,
        step_move=step_move,
        m=m,
        composed_move=composed_move.reshape(-1, m),
    )


def _symbols(walk: WalkTables, u: np.ndarray) -> np.ndarray:
    """The symbol of each draw 0 <= u < 1: ``searchsorted(breaks, u, side="right")``.

    Draw u falls in bucket floor(u * B), B = ``len(below)``, whose first
    break is ``below[...]``; at most ``depth`` breaks lie inside a bucket,
    so as many comparisons finish the count.
    """
    import numpy as np

    first = walk.below[(u * len(walk.below)).astype(np.intp)]
    g = first.astype(np.intp)
    for t in range(walk.depth):
        g += u >= walk.breaks[first + t]
    return g


def initial_frontiers(k: int) -> list[int]:
    """Bead frontiers of the empty core: class c is full below c - (k+1)."""
    return [c - (k + 1) for c in range(k + 1)]


# Draws per block; a larger block's .tolist() shows in the peak RSS.
BLOCK = 8192


def run_simulation(config: SimConfig) -> SimResult:
    """Walk the reduced chain in composed steps, counting how often each move fires.

    A reduced move jumps the same labels from every rotation of its state's
    word, and only a jump over k+1 turns the ring, by one slot, so every
    output except the current state is linear in the move counts: occupancy,
    ledger and by-label frontiers, and the final rotation, the number of
    jumps over k+1.  The final state's word then places each label's
    frontier on its bead class.  The loop only draws, walks and counts; the
    outputs are derived from the counts afterwards (the ledger also at each
    checkpoint, where a block always ends).
    """
    import numpy as np

    k = config.k
    mc = chain_mod.build_chain(k)
    walk = _sampling_tables(mc)
    sizes = [sum(s) for s in mc.states]
    removed = np.array([move[1] for move in walk.moves])
    removals = [np.flatnonzero(removed == i) for i in range(1, k + 1)]
    counts = np.zeros(len(walk.moves), dtype=np.int64)

    def ledger_now() -> list[int]:
        return [int(counts[j].sum()) for j in removals]

    m, (states, symbols) = walk.m, walk.step_move.shape
    width = symbols**m
    targets = [move[0] for move in walk.moves]
    # rows[s][c] is the row of the state that composed symbol c reaches from
    # s; the last entry, never a symbol, is s itself.
    rows: list[list] = [[] for _ in range(states)]
    for s, row in enumerate(rows):
        last = walk.composed_move[s * width : (s + 1) * width, -1].tolist()
        row.extend(map(rows.__getitem__, map(targets.__getitem__, last)))
        row.append(s)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    row = rows[0]
    checkpoints: list[tuple[int, int, tuple[int, ...]]] = []
    every = config.checkpoint_every
    done = 0
    while done < config.n:
        stop = min(done + BLOCK, config.n)
        if every:
            stop = min(stop, (done // every + 1) * every)
        g = _symbols(walk, rng.random(stop - done))
        q = len(g) // m
        composed = g[: q * m : m]
        for t in range(1, m):
            composed = composed * symbols + g[t : q * m : m]
        visited = list(accumulate(composed.tolist(), getitem, initial=row))
        row = visited.pop()
        at = np.fromiter(map(itemgetter(-1), visited), np.intp, q) * width + composed
        counts += np.bincount(walk.composed_move[at].ravel(), minlength=len(counts))
        for symbol in g[q * m :].tolist():  # the < m steps left take single steps
            j = walk.step_move[row[-1], symbol]
            counts[j] += 1
            row = rows[targets[j]]
        done = stop
        if every and done % every == 0:
            ledger = ledger_now()
            _assert_conserved(done, sizes[row[-1]], ledger, k)
            checkpoints.append((done, row[-1], tuple(ledger)))
    state = row[-1]
    for row in rows:  # break the rows' reference cycles
        row.clear()

    ledger = ledger_now()
    _assert_conserved(config.n, sizes[state], ledger, k)
    occupancy = [0] * states
    by_label = initial_frontiers(k)  # label i+1 starts at class i
    turn = 0  # each jump over k+1 turns the ring by one slot
    for (target, _removed, column, other), c in zip(walk.moves, counts.tolist()):
        occupancy[target] += c
        by_label[column - 1] -= c  # the jumping label's frontier steps down
        by_label[other - 1] += c  # the jumped-over label's steps up
        if other == k + 1:
            turn += c
    frontiers = [0] * (k + 1)
    for cls, label in enumerate(alpha_inv(mc.states[state], k)):
        frontiers[(cls + turn) % (k + 1)] = by_label[label - 1]
    boundary = boundary_from_frontiers(frontiers, k, config.n, config.boundary_samples)
    return SimResult(
        config=config,
        final_state=mc.states[state],
        ledger=tuple(ledger),
        occupancy=np.array(occupancy, dtype=np.int64),
        frontiers=tuple(frontiers),
        boundary=boundary,
        checkpoints=checkpoints,
    )


def _assert_conserved(n: int, reduced_size: int, ledger, k: int) -> None:
    total = reduced_size + sum(
        c * rectangle_area(i + 1, k) for i, c in enumerate(ledger)
    )
    if total != n:
        raise InvariantError(f"box conservation violated: {total} != {n}")


# --- core boundaries ----------------------------------------------------------

def boundary_from_frontiers(frontiers, k: int, n: int, samples: int) -> list[tuple[float, float]]:
    """Exact sampled points on the core's staircase, scaled by 1/n.

    The bead count above a position is a closed form in the k+1 frontiers,
    so each sample costs O(k) regardless of the core size.
    """
    r = k + 1
    top = max(frontiers)
    bottom = min(frontiers)

    def above(x: int) -> int:
        return sum((g - x + r - 1) // r for g in frontiers if g > x)

    first_vac = next(p for p in range(bottom + 1, bottom + r + 2) if frontiers[p % r] < p)
    rows = above(first_vac - 1)  # rows with at least one vacancy below
    base = above(bottom)
    # Past top - bottom + 2 samples the step is below 1 and every position is
    # already hit, so more samples add nothing but work.
    count = min(samples, top - bottom + 2)
    positions = sorted({bottom + (top - bottom) * t // (count - 1) for t in range(count)})
    pts = []
    for p in positions:
        x = (p - bottom) - (base - above(p))
        y = min(above(p), rows)
        pts.append((x / n, y / n))
    return sorted(set(pts))


# --- limit-curve comparison -------------------------------------------------

def limit_curve_vertices(rho) -> list[tuple[Fraction, Fraction]]:
    """Vertices of the piecewise-linear curve fixed by the rectangle rates rho.

    Vertex j, for j = 1..k+1, is (sum over i < j of i rho_i, sum over i >= j
    of (k+1-i) rho_i), so segment i is rho_i times the diagonal of the type-i
    k-rectangle (k+1-i rows of length i).  Exact rates give exact vertices.
    """
    k = len(rho)
    return [
        (
            sum((i * rho[i - 1] for i in range(1, j)), Fraction(0)),
            sum(((k + 1 - i) * rho[i - 1] for i in range(j, k + 1)), Fraction(0)),
        )
        for j in range(1, k + 2)
    ]


def _distances_to_polyline(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    import numpy as np

    best = np.full(len(points), np.inf)
    for a, b in zip(vertices[:-1], vertices[1:]):
        d = b - a
        denom = float(d @ d)
        if denom == 0.0:
            dist = np.hypot(*(points - a).T)
        else:
            t = np.clip(((points - a) @ d) / denom, 0.0, 1.0)
            proj = a + np.outer(t, d)
            dist = np.hypot(*(points - proj).T)
        best = np.minimum(best, dist)
    return best


def compare_to_limit(boundary_pts, rho) -> tuple[float, float]:
    """Distances of the boundary points to the limit curve of the rates rho.

    Returns (sup distance, mean squared distance).  Both are reported because
    no convergence metric is canonical here.
    """
    import numpy as np

    pts = np.asarray(boundary_pts, dtype=float)
    if len(pts) == 0:
        raise ValueError("empty boundary")
    dist = _distances_to_polyline(pts, np.asarray(limit_curve_vertices(rho), dtype=float))
    return float(dist.max()), float(np.mean(dist**2))


# --- projection consistency --------------------------------------------------

def verify_projection(k: int, n_max: int) -> Report:
    """The growth steps out of each k-bounded partition of size below ``n_max``
    are the finite chain's moves out of its reduced image, field for field."""
    mc = chain_mod.build_chain(k)
    bad = None
    for b in (b for n in range(n_max) for b in enumerate_bounded(k, n)):
        steps = set(chain_mod.growth_steps(b, k))
        moves = set(mc.moves[mc.state_index(reduce_rectangles(b, k)[0])])
        if steps != moves:
            bad = {
                "B": b,
                "unprojected": sorted(map(repr, steps - moves)),
                "unmatched": sorted(map(repr, moves - steps)),
            }
            break
    return Report("projection-consistency", THEOREM, bad is None, {"k": k, "n_max": n_max}, bad)


# --- output files -------------------------------------------------------------

def boundary_csv(points) -> str:
    lines = ["x,y"]
    lines.extend("%.12g,%.12g" % (x, y) for x, y in points)
    return "\n".join(lines) + "\n"


def rho_csv(result: SimResult) -> str:
    target = 1.0 / comb(result.config.k + 2, 3)
    lines = ["i,count,rho_hat,conjectured"]
    for i, (c, hat) in enumerate(zip(result.ledger, result.rho_hat), start=1):
        lines.append("%d,%d,%.12g,%.12g" % (i, c, hat, target))
    return "\n".join(lines) + "\n"


def occupancy_csv(result: SimResult, pi: chain_mod.StationaryDistribution) -> str:
    lines = ["index,parts,visits,frequency,pi"]
    for i, (s, visits) in enumerate(zip(pi.chain.states, result.occupancy)):
        lines.append(
            '%d,"%s",%d,%.12g,%.12g'
            % (i, " ".join(map(str, s)), int(visits), visits / result.config.n, float(pi.values[i]))
        )
    return "\n".join(lines) + "\n"


def overlay_svg(result: SimResult, rho, deviation: tuple[float, float]) -> str:
    """Boundary polyline with the limit curve of the rates rho, as a standalone SVG."""
    pts = result.boundary
    curve = [(float(x), float(y)) for x, y in limit_curve_vertices(rho)]
    extent = max(max(x for x, _ in pts + curve), max(y for _, y in pts + curve)) * 1.05
    size = 640

    def svg_pts(seq):
        return " ".join(
            "%.2f,%.2f" % (x / extent * size, size - y / extent * size) for x, y in seq
        )

    return (
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">\n'
        '<rect width="%d" height="%d" fill="white"/>\n'
        '<polyline points="%s" fill="none" stroke="#888" stroke-width="1"/>\n'
        '<polyline points="%s" fill="none" stroke="#c22" stroke-width="2" '
        'stroke-dasharray="6 3"/>\n'
        "<text x='8' y='16' font-size='12'>k=%d n=%d rho=%s sup_dev=%.3g</text>\n"
        "</svg>\n"
        % (
            size,
            size,
            size,
            size,
            size,
            size,
            svg_pts(pts),
            svg_pts(curve),
            result.config.k,
            result.config.n,
            ",".join(map(str, rho)),
            deviation[0],
        )
    )


def report_json(result: SimResult, rho, deviation: tuple[float, float]) -> str:
    sup_deviation, mean_sq_deviation = deviation
    payload = {
        "k": result.config.k,
        "n": result.config.n,
        "seed": result.config.seed,
        "final_state": list(result.final_state),
        "ledger": list(result.ledger),
        "rho_hat": [float(x) for x in result.rho_hat],
        "rho": [str(r) for r in rho],
        "sup_deviation": sup_deviation,
        "mean_sq_deviation": mean_sq_deviation,
    }
    if result.config.checkpoint_every:
        payload["checkpoints"] = [
            [step, state, list(ledger)] for step, state, ledger in result.checkpoints
        ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_outputs(
    result: SimResult,
    pi: chain_mod.StationaryDistribution,
    rho,
    deviation: tuple[float, float],
) -> list[str]:
    """Write the configured outputs; ``deviation`` is ``compare_to_limit``'s for ``rho``."""
    renderers = (
        ("boundary_csv", lambda: boundary_csv(result.boundary)),
        ("rho_csv", lambda: rho_csv(result)),
        ("occupancy_csv", lambda: occupancy_csv(result, pi)),
        ("svg", lambda: overlay_svg(result, rho, deviation)),
        ("report_json", lambda: report_json(result, rho, deviation)),
    )
    written = []
    for key, render in renderers:
        if key in result.config.outputs:
            path = result.config.outputs[key]
            _write(path, render())
            written.append(path)
    return written


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
