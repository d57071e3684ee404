"""Fast-vs-reference kernel equivalence.

The bitmask kernel must reproduce the reference kernel in
``tests/kernel_oracle.py``: for a fixed seed it produces
bitwise-identical placements, costs and history on designs of several
sizes.  This holds exactly (not approximately) because both kernels
share the driver's batched random stream and, with integer edge widths,
every HPWL term is a dyadic rational that float64 evaluates exactly in
any summation order.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.device.column import ColumnKind
from repro.device.grid import DeviceGrid
from repro.flow.blockdesign import BlockDesign
from repro.flow.evolve import GAParams, evolve
from repro.flow.global_place import GPParams, global_place
from repro.flow.stitcher import SAParams, stitch
from repro.flow.tempering import PTParams, temper
from repro.place.shapes import Footprint
from repro.place_kernel.problem import PlacementProblem
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud
from tests.kernel_oracle import ReferenceKernel, reference_kernel

_LL = ColumnKind.CLBLL
_LM = ColumnKind.CLBLM

#: Degenerate fabrics the z020-only suite never exercised: a grid so
#: narrow that footprints have a single anchor column, and a grid built
#: from one site type only (every anchor run overlaps every other).
_GRID_CASES = {
    "narrow": (
        DeviceGrid.from_kinds("narrow", [_LL, _LM, _LL], n_regions=1),
        {
            "pair": Footprint((_LL, _LM), (10, 10)),
            "tall": Footprint((_LM,), (22,)),
        },
    ),
    "single-type": (
        DeviceGrid.from_kinds("single", [_LL] * 6, n_regions=1),
        {
            "pair": Footprint((_LL, _LL), (8, 8)),
            "tall": Footprint((_LL,), (18,)),
        },
    ),
}


def _case_design(fps: dict[str, Footprint], n: int = 10) -> BlockDesign:
    d = BlockDesign(name="gridcase")
    for name in fps:
        d.add_module(RTLModule.make(name, [RandomLogicCloud(n_luts=4)]))
    mods = list(fps)
    for i in range(n):
        d.add_instance(f"i{i}", mods[i % len(mods)])
    for i in range(n - 1):
        d.connect(f"i{i}", f"i{i + 1}", width=1 + i % 3)
    return d


def _mixed_design(n_instances: int) -> tuple[BlockDesign, dict[str, Footprint]]:
    """A design mixing soft, hard-block and ragged footprints."""
    fps = {
        "soft": Footprint((_LL, _LM), (12, 12)),
        "ragged": Footprint((_LM, _LL, _LL), (18, 9, 4)),
        "hard": Footprint((_LL, _LM, ColumnKind.BRAM), (10, 10, 10)),
    }
    d = BlockDesign(name=f"equiv{n_instances}")
    for name in fps:
        d.add_module(RTLModule.make(name, [RandomLogicCloud(n_luts=4)]))
    mods = list(fps)
    for i in range(n_instances):
        d.add_instance(f"i{i}", mods[i % len(mods)])
    for i in range(n_instances - 1):
        d.connect(f"i{i}", f"i{i + 1}", width=1 + i % 7)
    # A few chords so some nodes have degree > 2.
    for i in range(0, n_instances - 4, 5):
        d.connect(f"i{i}", f"i{i + 4}", width=3)
    return d, fps


@pytest.mark.parametrize("n_instances", [4, 12, 30])
@pytest.mark.parametrize("seed", [0, 3])
class TestKernelEquivalence:
    def test_identical_results(self, z020, n_instances, seed):
        d, fps = _mixed_design(n_instances)
        params = SAParams(max_iters=3000, seed=seed)
        fast = stitch(d, fps, z020, params)
        with reference_kernel():
            ref = stitch(d, fps, z020, params)
        assert fast.placements == ref.placements
        assert fast.final_cost == ref.final_cost
        assert fast.wirelength == ref.wirelength
        assert fast.history == ref.history
        assert fast.n_placed == ref.n_placed
        assert fast.n_unplaced == ref.n_unplaced
        assert fast.iterations == ref.iterations
        assert fast.converged_at == ref.converged_at
        assert fast.illegal_moves == ref.illegal_moves
        assert np.array_equal(fast.occupancy, ref.occupancy)

    def test_counters_agree(self, z020, n_instances, seed):
        """Move/accept counters are part of the shared driver contract."""
        d, fps = _mixed_design(n_instances)
        params = SAParams(max_iters=1500, seed=seed)
        fast = stitch(d, fps, z020, params).stats
        with reference_kernel():
            ref = stitch(d, fps, z020, params).stats
        for name in (
            "move_attempts",
            "place_attempts",
            "swap_attempts",
            "move_accepts",
            "place_accepts",
            "swap_accepts",
            "illegal_moves",
        ):
            assert getattr(fast, name) == getattr(ref, name), name
        assert fast.temperature_trace == ref.temperature_trace


@pytest.mark.parametrize("case", sorted(_GRID_CASES))
@pytest.mark.parametrize("seed", [0, 3])
class TestGridShapeEquivalence:
    """Equivalence on degenerate fabrics (narrow / single site type).

    These shapes stress the fast kernel differently from the z020: a
    narrow grid leaves one compatible anchor per footprint (every move
    is a same-column shuffle), and a single-site-type grid makes every
    anchor run overlap, maximizing bitmask aliasing between columns.
    """

    def test_identical_results(self, case, seed):
        grid, fps = _GRID_CASES[case]
        d = _case_design(fps)
        params = SAParams(max_iters=2000, seed=seed)
        fast = stitch(d, fps, grid, params)
        with reference_kernel():
            ref = stitch(d, fps, grid, params)
        assert fast.placements == ref.placements
        assert fast.final_cost == ref.final_cost
        assert fast.wirelength == ref.wirelength
        assert fast.history == ref.history
        assert fast.illegal_moves == ref.illegal_moves
        assert np.array_equal(fast.occupancy, ref.occupancy)

    def test_placements_legal(self, case, seed):
        """Both kernels respect the degenerate grid's geometry."""
        grid, fps = _GRID_CASES[case]
        d = _case_design(fps)
        res = stitch(d, fps, grid, SAParams(max_iters=2000, seed=seed))
        assert res.occupancy.max(initial=0) <= 1
        kinds = grid.kinds()
        for k in range(len(d.instances)):
            pos = res.placements[f"i{k}"]
            if pos is None:
                continue
            fp = fps[d.instances[k].module].trimmed()
            x, y = pos
            assert kinds[x : x + fp.width] == fp.col_kinds
            assert 0 <= y <= grid.height_clbs - fp.max_height


#: Every placer that builds its own kernel, at a tiny budget.
_EACH_PLACER = pytest.mark.parametrize(
    "place",
    [
        lambda d, fps, g: stitch(d, fps, g, SAParams(max_iters=100)),
        lambda d, fps, g: evolve(d, fps, g, GAParams(move_budget=100)),
        lambda d, fps, g: temper(d, fps, g, PTParams(max_iters=100)),
        lambda d, fps, g: global_place(d, fps, g, GPParams(n_iters=5)),
    ],
    ids=["stitch", "evolve", "temper", "global_place"],
)


class TestKernelSelection:
    @_EACH_PLACER
    def test_oracle_reaches_placer(self, z020, place):
        """Inside ``reference_kernel()`` every placer runs on the oracle,
        so the equivalence tests really compare two kernels."""
        d, fps = _mixed_design(4)
        with reference_kernel() as built:
            place(d, fps, z020)
        assert built and all(type(k) is ReferenceKernel for k in built)

    @_EACH_PLACER
    def test_run_keeps_no_kernel_alive(self, z020, place, monkeypatch):
        """Once a placer returns, no kernel it built is reachable: not
        from its result, nor from module state kept for the next run."""
        d, fps = _mixed_design(4)
        refs = []
        make_kernel = PlacementProblem.make_kernel

        def recording(problem, unplaced_weight):
            k = make_kernel(problem, unplaced_weight)
            refs.append(weakref.ref(k))
            return k

        monkeypatch.setattr(PlacementProblem, "make_kernel", recording)
        result = place(d, fps, z020)
        gc.collect()
        assert refs and all(ref() is None for ref in refs)
        assert result.n_placed + result.n_unplaced == len(d.instances)

    def test_crowded_device_equivalence(self, tiny_grid):
        """Equivalence holds when most moves are illegal (full device)."""
        fps = {"m": Footprint((_LL,), (40,))}
        d = BlockDesign(name="crowded")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
        for i in range(8):
            d.add_instance(f"i{i}", "m")
        for i in range(7):
            d.connect(f"i{i}", f"i{i + 1}", width=2)
        params = SAParams(max_iters=2000, seed=1)
        fast = stitch(d, fps, tiny_grid, params)
        with reference_kernel():
            ref = stitch(d, fps, tiny_grid, params)
        assert fast.placements == ref.placements
        assert fast.final_cost == ref.final_cost
        assert fast.history == ref.history
        assert fast.illegal_moves == ref.illegal_moves
