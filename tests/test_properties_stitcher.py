"""Property-based tests for the stitcher (hypothesis).

Every invariant runs against both move kernels (``fast`` and the
``reference`` kernel in ``tests/kernel_oracle.py``), so the vectorized
data structures are held to the same geometric contract as the
straightforward implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.column import ColumnKind
from repro.device.grid import DeviceGrid
from repro.flow.blockdesign import BlockDesign
from repro.flow.stitcher import SAParams, stitch
from repro.place.shapes import Footprint
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud
from tests.kernel_oracle import KERNELS, kernel

_LL = ColumnKind.CLBLL
_LM = ColumnKind.CLBLM
_BR = ColumnKind.BRAM
_DS = ColumnKind.DSP

_HARD_PITCH = 5  # CLB rows per BRAM/DSP site (stitcher y-step)

_GRID = DeviceGrid.from_kinds(
    "prop",
    [_LL, _LM, _BR, _LL, _LM, _DS, _LL, _LM, _LL, _LL],
    n_regions=1,
)

_PATTERNS = [
    (_LL,),
    (_LM,),
    (_LL, _LM),
    (_LM, _LL),
    (_BR,),
    (_LM, _DS),
    (_LL, _LM, _BR),
]

_footprints = st.lists(
    st.tuples(st.sampled_from(_PATTERNS), st.integers(1, 30)),
    min_size=1,
    max_size=8,
)

_kernels = pytest.mark.parametrize("name", list(KERNELS))


def _stitch(name, d, fps, params):
    with kernel(name):
        return stitch(d, fps, _GRID, params)


def _build(fp_specs):
    d = BlockDesign(name="prop")
    fps = {}
    for k, (kinds, h) in enumerate(fp_specs):
        name = f"m{k}"
        d.add_module(RTLModule.make(name, [RandomLogicCloud(n_luts=2)]))
        d.add_instance(f"i{k}", name)
        fps[name] = Footprint(kinds, (h,) * len(kinds))
        if k:
            d.connect(f"i{k - 1}", f"i{k}", width=2)
    return d, fps


class TestStitcherInvariants:
    @_kernels
    @given(_footprints, st.integers(0, 5))
    @settings(max_examples=25, deadline=None)
    def test_no_overlap_ever(self, name, fp_specs, seed):
        d, fps = _build(fp_specs)
        res = _stitch(name, d, fps, SAParams(max_iters=800, seed=seed))
        assert res.occupancy.max() <= 1

    @_kernels
    @given(_footprints, st.integers(0, 5))
    @settings(max_examples=25, deadline=None)
    def test_occupancy_equals_painted_footprints(self, name, fp_specs, seed):
        """The occupancy grid is exactly the sum of the placed skylines."""
        d, fps = _build(fp_specs)
        res = _stitch(name, d, fps, SAParams(max_iters=800, seed=seed))
        expected = np.zeros((_GRID.n_cols, _GRID.height_clbs), dtype=np.int16)
        for k in range(len(d.instances)):
            pos = res.placements[f"i{k}"]
            if pos is None:
                continue
            fp = fps[d.instances[k].module].trimmed()
            x, y = pos
            for c, h in enumerate(fp.heights):
                expected[x + c, y : y + h] += 1
        assert np.array_equal(res.occupancy, expected)

    @_kernels
    @given(_footprints, st.integers(0, 5))
    @settings(max_examples=25, deadline=None)
    def test_placements_pattern_compatible(self, name, fp_specs, seed):
        """Anchors sit on matching column kinds, in bounds, pitch-aligned."""
        d, fps = _build(fp_specs)
        res = _stitch(name, d, fps, SAParams(max_iters=800, seed=seed))
        all_kinds = _GRID.kinds()
        for k in range(len(d.instances)):
            pos = res.placements[f"i{k}"]
            if pos is None:
                continue
            fp = fps[d.instances[k].module].trimmed()
            x, y = pos
            assert all_kinds[x : x + fp.width] == fp.col_kinds
            assert 0 <= y <= _GRID.height_clbs - fp.max_height
            if any(kind in (_BR, _DS) for kind in fp.col_kinds):
                assert y % _HARD_PITCH == 0

    @_kernels
    @given(_footprints, st.integers(0, 5))
    @settings(max_examples=25, deadline=None)
    def test_cost_decomposition(self, name, fp_specs, seed):
        """``final_cost == wirelength + unplaced_weight * unplaced_area``."""
        d, fps = _build(fp_specs)
        params = SAParams(max_iters=800, seed=seed)
        res = _stitch(name, d, fps, params)
        unplaced_area = sum(
            fps[d.instances[k].module].occupied_clbs
            for k in range(len(d.instances))
            if res.placements[f"i{k}"] is None
        )
        assert res.final_cost == res.wirelength + params.unplaced_weight * unplaced_area

    @_kernels
    @given(_footprints)
    @settings(max_examples=15, deadline=None)
    def test_deterministic_across_runs(self, name, fp_specs):
        d, fps = _build(fp_specs)
        a = _stitch(name, d, fps, SAParams(max_iters=500, seed=7))
        b = _stitch(name, d, fps, SAParams(max_iters=500, seed=7))
        assert a.placements == b.placements

    @given(_footprints, st.integers(0, 3))
    @settings(max_examples=15, deadline=None)
    def test_kernels_agree(self, fp_specs, seed):
        """Random designs: both kernels produce the identical result."""
        d, fps = _build(fp_specs)
        params = SAParams(max_iters=600, seed=seed)
        fast = _stitch("fast", d, fps, params)
        ref = _stitch("reference", d, fps, params)
        assert fast.placements == ref.placements
        assert fast.final_cost == ref.final_cost
        assert fast.history == ref.history
        assert np.array_equal(fast.occupancy, ref.occupancy)
