"""Evolutionary (GA) macro placer over the shared placement kernel.

A deterministic memetic genetic algorithm, a peer of the SA stitcher
(paper-adjacent grounding: RapidLayout's evolutionary hard-block
placement and Kroes et al.'s evolutionary bin packing both show
evolution competitive with annealing on exactly this block-to-region
assignment problem).  The genome is a *permutation* (the order blocks
claim device area) plus a *placement-shape* gene per instance (its
preferred compatible column); decoding greedily packs blocks in genome
order, repairing to legality by scanning the remaining compatible
columns.  Crossover recombines column assignments gene-wise and
placement order via order-crossover; mutation perturbs both and — the
memetic part — applies a few hill-climbing moves through the *same*
move kernel the SA stitcher anneals with
(:mod:`repro.place_kernel.kernel`), so SA and GA obey identical
legality rules and produce directly comparable costs.

Budget accounting is move-compatible with SA: one kernel placement
operation (a decode step, a restore step, or one ``try_move`` /
``try_place`` / ``try_swap`` call) costs one unit of
:attr:`GAParams.move_budget`, exactly what one SA iteration costs.
``evolve`` with ``move_budget=N`` and ``stitch`` with ``max_iters=N``
spend the same number of kernel operations — the equal-budget contract
the perf-smoke gate compares them under.

Determinism: every random decision draws from one batched
:class:`~repro.place_kernel.uniform.UniformBuffer` stream seeded by
``GAParams.seed``; generation counts are fixed by the budget (no
wall-clock or cost-based stopping), so a fixed configuration reproduces
bit-for-bit in any process (``tests/test_determinism_cross_process.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.grid import DeviceGrid
from repro.flow.blockdesign import BlockDesign
from repro.obs.tracer import NullTracer, Tracer, current_tracer
from repro.place.shapes import Footprint
from repro.place_kernel.kernel import PlacementKernel
from repro.place_kernel.problem import PlacementProblem
from repro.place_kernel.result import StitchResult, finish
from repro.place_kernel.uniform import UniformBuffer

__all__ = ["GAParams", "evolve"]


@dataclass(frozen=True)
class GAParams:
    """Genetic-algorithm configuration.

    The generation count is derived from ``move_budget`` (population
    decodes until the evolution share of the budget is spent), so runs
    are budget-bounded and deterministic rather than wall-clock bound.
    """

    #: Total kernel-operation budget, directly comparable to the SA
    #: stitcher's ``max_iters`` (one unit = one placement op).
    move_budget: int = 20000
    #: Individuals per generation (shrunk automatically when the budget
    #: cannot afford a full population).
    population: int = 16
    #: Tournament size for parent selection.
    tournament: int = 3
    #: Probability a child is bred by crossover (else a mutated clone).
    p_crossover: float = 0.9
    #: Fraction of column genes re-drawn per mutation.
    col_mutation: float = 0.15
    #: Permutation swap mutations per child.
    perm_swaps: int = 1
    #: Kernel hill-climbing moves applied to each child after decoding
    #: (the memetic "mutation via the shared move kernel").
    child_moves: int = 4
    #: Individuals copied unchanged into the next generation.
    elite: int = 2
    #: Trailing fraction of the budget spent hill-climbing the best
    #: placement with kernel moves (the repair/polish phase).
    polish_frac: float = 0.5
    #: Probability of a place attempt per polish move (mirrors SAParams).
    p_place: float = 0.15
    #: Probability of a same-module swap per polish move.
    p_swap: float = 0.15
    #: Cost charged per CLB of unplaced block area (same objective as
    #: ``SAParams.unplaced_weight`` — required for comparable costs).
    unplaced_weight: float = 40.0
    seed: int = 0


class _Genome:
    """Permutation + per-instance preferred-column gene."""

    __slots__ = ("perm", "cols", "fit")

    def __init__(self, perm: list[int], cols: list[int]) -> None:
        self.perm = perm
        self.cols = cols
        self.fit = float("inf")

    def clone(self) -> "_Genome":
        g = _Genome(list(self.perm), list(self.cols))
        g.fit = self.fit
        return g


class _Budget:
    """Kernel-operation meter; one unit == one SA iteration."""

    __slots__ = ("used", "limit")

    def __init__(self, limit: int) -> None:
        self.used = 0
        self.limit = limit

    def charge(self, n: int) -> None:
        self.used += n

    def remaining(self) -> int:
        return self.limit - self.used


def _decode(st: PlacementKernel, g: _Genome, budget: _Budget) -> float:
    """Greedy-pack the genome onto an empty device; repairs to legality.

    Each instance tries its preferred column first and then the
    remaining compatible columns in rotation (the repair scan), taking
    the lowest fitting row in the first column that accepts it.
    Instances with no legal site stay unplaced (penalized by cost); a
    footprint known to fit nowhere is not scanned again.
    """
    st.clear()
    for i in g.perm:
        xs = st.anchors_x[i]
        if not xs or st.y_max[i] < 0 or st.fits_nowhere(i):
            continue
        start = g.cols[i] % len(xs)
        for k in range(len(xs)):
            x = xs[(start + k) % len(xs)]
            y = st.lowest_fit_y(i, x)
            if y is not None:
                st.set_pos(i, (x, y))
                st.paint(i, x, y, +1)
                break
        else:
            st.note_fits_nowhere(i)
    budget.charge(max(1, st.n))
    return st.total_cost()


def _micro_polish(
    st: PlacementKernel, n_moves: int, u: UniformBuffer, budget: _Budget
) -> float:
    """A few zero-temperature kernel moves (the memetic mutation)."""
    delta = 0.0
    placed = [i for i in range(st.n) if st.pos[i] is not None]
    if not placed:
        return 0.0
    for _ in range(n_moves):
        i = placed[u.index(len(placed))]
        delta += st.try_move(i, 0.0, u)
        budget.charge(1)
    return delta


def _tournament(pop: list[_Genome], k: int, u: UniformBuffer) -> _Genome:
    best = pop[u.index(len(pop))]
    for _ in range(k - 1):
        cand = pop[u.index(len(pop))]
        if cand.fit < best.fit:
            best = cand
    return best


def _crossover(a: _Genome, b: _Genome, u: UniformBuffer) -> _Genome:
    """Column-assignment crossover + order crossover on the permutation."""
    n = len(a.perm)
    cols = [a.cols[i] if u.next() < 0.5 else b.cols[i] for i in range(n)]
    if n > 1:
        cut = 1 + u.index(n - 1)
        head = a.perm[:cut]
        taken = set(head)
        perm = head + [i for i in b.perm if i not in taken]
    else:
        perm = list(a.perm)
    return _Genome(perm, cols)


def _mutate(g: _Genome, params: GAParams, u: UniformBuffer) -> None:
    n = len(g.perm)
    if n > 1:
        for _ in range(params.perm_swaps):
            i = u.index(n)
            j = u.index(n - 1)
            if j >= i:
                j += 1
            g.perm[i], g.perm[j] = g.perm[j], g.perm[i]
    n_col = max(1, int(n * params.col_mutation)) if n else 0
    for _ in range(n_col):
        i = u.index(n)
        g.cols[i] = u.index(1 << 16)


def evolve(
    design: BlockDesign,
    footprints: dict[str, Footprint],
    grid: DeviceGrid,
    params: GAParams | None = None,
    *,
    tracer: Tracer | NullTracer | None = None,
) -> StitchResult:
    """Place all instances of ``design`` on ``grid`` with the GA.

    Parameters
    ----------
    design, footprints, grid:
        As for :func:`~repro.flow.stitcher.stitch`.
    params:
        GA configuration; ``params.move_budget`` is the SA-comparable
        kernel-operation budget.
    tracer:
        Where the run's ``evolve`` span tree (``evolve.init`` /
        ``evolve.generations`` / ``evolve.repair`` — the three phases
        tile the run) is recorded; defaults to the ambient tracer.  An
        untraced run records nothing.

    Returns
    -------
    StitchResult
        The same result shape the SA stitcher returns;
        ``result.iterations`` is the consumed move budget and
        ``result.history`` holds the ``(budget_used, best_cost)``
        improvement trajectory.
    """
    params = params or GAParams()
    tr = tracer if tracer is not None else current_tracer()

    with tr.span(
        "evolve", seed=params.seed, move_budget=params.move_budget
    ) as sp_root:
        # ---------------------------------------------------------- init
        with tr.span("evolve.init") as sp_init:
            problem = PlacementProblem.from_design(design, footprints, grid)
            st = problem.make_kernel(params.unplaced_weight)
            swappable = problem.swappable
            n = st.n
            budget = _Budget(max(1, params.move_budget))
            polish_budget = int(budget.limit * params.polish_frac)
            evolve_budget = budget.limit - polish_budget
            u = UniformBuffer(np.random.default_rng(params.seed), block=4096)

            decode_cost = max(1, n)
            # The seeded elite: greedy packing order with each block's
            # chosen column folded back into its column gene, so the GA
            # starts no worse than the SA stitcher's initial heuristic.
            st.greedy_initial()
            budget.charge(decode_cost)
            seeded = _Genome(st.greedy_order(), [0] * n)
            for i in range(n):
                p = st.pos[i]
                if p is not None:
                    seeded.cols[i] = st.anchors_x[i].index(p[0])
            seeded.fit = st.total_cost()

            best_fit = seeded.fit
            best_pos: list[tuple[int, int] | None] = list(st.pos)
            history: list[tuple[int, float]] = [(0, best_fit)]

            # Population sizing: aim for at least two parents, but never
            # spend the whole evolution share on generation zero, and
            # decode no genome the evolution share cannot pay for (a
            # budget below that keeps the seeded elite alone).
            affordable = max(2, evolve_budget // (2 * decode_cost))
            pop_size = max(2, min(params.population, affordable))
            population = [seeded]
            for _ in range(pop_size - 1):
                if budget.used + decode_cost + params.child_moves > evolve_budget:
                    break
                perm = list(range(n))
                for i in range(n - 1, 0, -1):  # seeded Fisher-Yates
                    j = u.index(i + 1)
                    perm[i], perm[j] = perm[j], perm[i]
                g = _Genome(perm, [u.index(1 << 16) for _ in range(n)])
                g.fit = _decode(st, g, budget)
                g.fit += _micro_polish(st, params.child_moves, u, budget)
                if g.fit < best_fit:
                    best_fit = g.fit
                    best_pos = list(st.pos)
                    history.append((budget.used, best_fit))
                population.append(g)
            sp_init.incr("n_instances", n)
            sp_init.incr("population", len(population))

        # --------------------------------------------------- generations
        with tr.span("evolve.generations") as sp_gen:
            # At least one child must be bred per generation, or the
            # loop would spin without ever charging the budget.
            elite_eff = min(params.elite, pop_size - 1)
            n_children = pop_size - elite_eff
            gen_cost = n_children * (decode_cost + params.child_moves)
            generations = 0
            while budget.used + gen_cost <= evolve_budget:
                generations += 1
                population.sort(key=lambda g: g.fit)
                children: list[_Genome] = [
                    g.clone() for g in population[:elite_eff]
                ]
                while len(children) < pop_size:
                    a = _tournament(population, params.tournament, u)
                    if u.next() < params.p_crossover:
                        b = _tournament(population, params.tournament, u)
                        child = _crossover(a, b, u)
                    else:
                        child = a.clone()
                    _mutate(child, params, u)
                    child.fit = _decode(st, child, budget)
                    child.fit += _micro_polish(st, params.child_moves, u, budget)
                    if child.fit < best_fit:
                        best_fit = child.fit
                        best_pos = list(st.pos)
                        history.append((budget.used, best_fit))
                    children.append(child)
                population = children
            sp_gen.incr("generations", generations)
            sp_gen.incr("evolve_ops", budget.used)

        # -------------------------------------------------------- repair
        with tr.span("evolve.repair") as sp_repair:
            # Hill-climb the best placement ever seen with the shared
            # move kernel for the remaining budget, then repair any
            # leftover unplaced blocks deterministically.  With no genome
            # decoded after the seeded elite, the kernel still holds the
            # best placement, so no restore runs and none is charged.
            if len(population) > 1:
                st.restore(best_pos)
                budget.charge(decode_cost)
            cost = st.total_cost()
            if cost < best_fit:
                best_fit = cost
                history.append((budget.used, best_fit))
            placed_list = [i for i in range(n) if st.pos[i] is not None]
            unplaced_list = [i for i in range(n) if st.pos[i] is None]
            steps = budget.remaining()
            if steps > 0:
                start = budget.used
                cost, best_fit, events = st.run_batch(
                    swappable, placed_list, unplaced_list,
                    steps, 0.0, params.p_place, params.p_swap, u, cost, best_fit,
                )
                budget.charge(steps)
                for off, c in events:
                    history.append((start + off, c))
            res = finish(st, history, budget.used, seed=params.seed)
            sp_repair.incr("polish_ops", budget.used)
            sp_repair.incr("n_placed", res.n_placed)

        sp_gen.incr("move_attempts", res.stats.move_attempts)
        sp_gen.incr("place_attempts", res.stats.place_attempts)
        sp_gen.incr("swap_attempts", res.stats.swap_attempts)
        sp_root.set_attr("n_placed", res.n_placed)
        sp_root.set_attr("n_unplaced", res.n_unplaced)
        sp_root.set_attr("final_cost", res.final_cost)
        sp_root.set_attr("generations", generations)
        sp_root.set_attr("converged_at", res.converged_at)
    return res
