"""Tests for the routing- and timing-aware kernel cost terms.

The contract under test (see :mod:`repro.place_kernel.route_cost`):

* the fast kernel's incremental channel-demand/overflow state equals a
  from-scratch recompute after *any* program of moves, swaps, clears and
  restores — bitwise, not approximately;
* the fast kernel and the reference kernel in ``tests/kernel_oracle.py``
  agree bitwise on every cost term with the route model enabled;
* both weights at 0.0 disable the model entirely (``build_route_model``
  returns ``None``) and the stitcher's results stay byte-identical to
  the pure-HPWL path.
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
from repro.place_kernel.problem import PlacementProblem
from repro.place_kernel.route_cost import (
    CHANNEL_CAPACITY,
    build_route_model,
    channel_window,
    edge_criticality,
    quantize_dyadic,
)
from repro.place_kernel.uniform import UniformBuffer
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud
from tests.kernel_oracle import KERNELS, ReferenceKernel, build, kernel, reference_kernel

_LL = ColumnKind.CLBLL
_LM = ColumnKind.CLBLM

_GRID = DeviceGrid.from_kinds(
    "route-prop",
    [_LL, _LM, _LL, _LM, _LL, _LM, _LL, _LM, _LL, _LL],
    n_regions=1,
)

_kernels = pytest.mark.parametrize("name", list(KERNELS))


def _chain(n: int, feedback: bool = False):
    d = BlockDesign(name="route")
    d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
    for i in range(n):
        d.add_instance(f"i{i}", "m")
    for i in range(n - 1):
        d.connect(f"i{i}", f"i{i + 1}", width=8)
    if feedback:
        d.connect(f"i{n - 1}", "i0", width=4)
    fps = {"m": Footprint((_LL, _LM), (8, 8))}
    return d, fps


def _problem(n: int, feedback: bool = False) -> PlacementProblem:
    d, fps = _chain(n, feedback)
    return PlacementProblem.from_design(d, fps, _GRID)


class TestChannelWindow:
    def test_fractional_span_crosses_one_boundary(self):
        assert channel_window(0.5, 1.5) == (0, 0)

    def test_zero_extent_is_empty(self):
        first, last = channel_window(1.5, 1.5)
        assert first > last

    def test_integer_endpoints_touch_but_do_not_cross(self):
        # Boundaries at the endpoints (1 and 3) are excluded; only the
        # strictly interior boundary 2 is crossed -> channel 1.
        assert channel_window(1.0, 3.0) == (1, 1)

    def test_subunit_span_within_a_channel_is_empty(self):
        first, last = channel_window(0.1, 0.9)
        assert first > last

    def test_wide_fractional_span(self):
        # (2.3, 5.7) strictly contains boundaries 3, 4, 5 -> channels 2..4.
        assert channel_window(2.3, 5.7) == (2, 4)


class TestQuantizeDyadic:
    def test_multiples_of_pow2_exact(self):
        assert quantize_dyadic(0.0625) == 0.0625
        assert quantize_dyadic(3.0) == 3.0

    def test_result_is_dyadic(self):
        q = quantize_dyadic(0.1)
        assert q * 1024.0 == round(q * 1024.0)
        assert abs(q - 0.1) <= 1.0 / 2048.0


class TestEdgeCriticality:
    def test_chain_fully_critical(self):
        edges = [(0, 1, 8), (1, 2, 8)]
        crit = edge_criticality(3, edges, [1.0, 1.0, 1.0])
        assert crit == [1.0, 1.0]

    def test_off_path_edge_less_critical(self):
        # Diamond 0->{1,2}->3 with a slow node 1: the 0->2->3 branch is
        # off the critical path.
        edges = [(0, 1, 8), (0, 2, 8), (1, 3, 8), (2, 3, 8)]
        crit = edge_criticality(4, edges, [1.0, 5.0, 1.0, 1.0])
        assert crit[0] == 1.0 and crit[2] == 1.0
        assert crit[1] < 1.0 and crit[3] < 1.0

    def test_cyclic_edges_maximally_critical(self):
        edges = [(0, 1, 8), (1, 0, 8), (2, 2, 4)]
        crit = edge_criticality(3, edges, [1.0, 1.0, 1.0])
        assert crit == [1.0, 1.0, 1.0]

    def test_empty(self):
        assert edge_criticality(0, [], []) == []


class TestBuildRouteModel:
    def test_zero_weights_disable_model(self):
        assert build_route_model(_problem(3)) is None
        assert (
            build_route_model(_problem(3), congestion_weight=0.0, timing_weight=0.0)
            is None
        )

    def test_congestion_only(self):
        m = build_route_model(_problem(3), congestion_weight=0.5)
        assert m is not None and m.has_congestion and not m.has_timing
        assert m.n_col_channels == _GRID.n_cols - 1
        assert m.n_row_channels == _GRID.height_clbs - 1
        assert m.capacity == CHANNEL_CAPACITY

    def test_timing_weights_quantized_and_positive(self):
        m = build_route_model(
            _problem(4, feedback=True),
            timing_weight=1.0,
            module_delays={"m": 2.0},
        )
        assert m is not None and m.has_timing and not m.has_congestion
        assert len(m.timing_edge_weight) == 4
        for w in m.timing_edge_weight:
            assert w > 0.0
            assert w * 1024.0 == round(w * 1024.0)


def _run_program(name, problem, route, ops, seed):
    """Drive one kernel through a deterministic op program."""
    k = build(problem, name, 1.0, route)
    u = UniformBuffer(np.random.default_rng(seed), 128)
    k.greedy_initial()
    for kind, a, b in ops:
        i = a % k.n
        j = b % k.n
        if kind == 0 and k.pos[i] is not None:
            k.try_move(i, 0.5, u)
        elif kind == 1 and k.pos[i] is None:
            k.try_place(i, u)
        elif kind == 2 and i != j and k.pos[i] is not None and k.pos[j] is not None:
            k.try_swap(i, j, 0.5, u)
        elif kind == 3:
            snap = list(k.pos)
            k.clear()
            k.restore(snap)
    return k


_ops = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 7), st.integers(0, 7)),
    max_size=40,
)


class TestIncrementalCongestion:
    @given(_ops, st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_incremental_equals_scratch(self, ops, seed):
        """The fast kernel's O(deg) demand updates are bitwise-equal to
        the from-scratch reference recompute after any op program."""
        problem = _problem(6, feedback=True)
        # capacity=4 < the widths, so overflow is actually exercised.
        route = build_route_model(
            problem,
            congestion_weight=0.5,
            timing_weight=1.0,
            module_delays={"m": 2.0},
            capacity=4,
        )
        k = _run_program("fast", problem, route, ops, seed)
        col, row, over = ReferenceKernel._scratch_congestion(k)
        assert k._ovf == over
        assert np.array_equal(k._col_dem, col)
        assert np.array_equal(k._row_dem, row)

    @given(_ops, st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_fast_matches_reference_bitwise(self, ops, seed):
        problem = _problem(6, feedback=True)
        route = build_route_model(
            problem,
            congestion_weight=0.5,
            timing_weight=1.0,
            module_delays={"m": 2.0},
            capacity=4,
        )
        f = _run_program("fast", problem, route, ops, seed)
        r = _run_program("reference", problem, route, ops, seed)
        assert f.pos == r.pos
        assert f.wirelength() == r.wirelength()
        assert f.timing_cost() == r.timing_cost()
        assert f.congestion_overflow() == r.congestion_overflow()
        assert f.total_cost() == r.total_cost()

    def test_clear_zeroes_demand(self):
        problem = _problem(5)
        route = build_route_model(problem, congestion_weight=1.0, capacity=4)
        k = problem.make_kernel(1.0, route)
        k.greedy_initial()
        assert k._ovf > 0  # tight capacity: the packed chain overflows
        k.clear()
        assert k._ovf == 0
        assert k._col_dem.sum() == 0
        assert k._row_dem.sum() == 0

    def test_restore_reconstructs_demand(self):
        problem = _problem(5)
        route = build_route_model(problem, congestion_weight=1.0, capacity=4)
        k = problem.make_kernel(1.0, route)
        k.greedy_initial()
        snap = list(k.pos)
        before = (k._ovf, k._col_dem.copy(), k._row_dem.copy())
        k.clear()
        k.restore(snap)
        assert k._ovf == before[0]
        assert np.array_equal(k._col_dem, before[1])
        assert np.array_equal(k._row_dem, before[2])


class TestStitcherIntegration:
    @_kernels
    def test_zero_weights_byte_identical(self, name):
        """weights == 0.0 must not perturb the historical SA path."""
        d, fps = _chain(8)
        with kernel(name):
            base = stitch(d, fps, _GRID, SAParams(max_iters=2000, seed=3))
            routed = stitch(
                d,
                fps,
                _GRID,
                SAParams(
                    max_iters=2000, seed=3, congestion_weight=0.0,
                    timing_weight=0.0,
                ),
                module_delays={"m": 2.0},
            )
        assert routed.placements == base.placements
        assert routed.final_cost == base.final_cost
        assert routed.history == base.history
        assert routed.congestion_cost == 0.0
        assert routed.timing_cost == 0.0

    @_kernels
    def test_cost_decomposition_with_route_terms(self, name):
        d, fps = _chain(8, feedback=True)
        params = SAParams(
            max_iters=2000, seed=1, congestion_weight=0.25, timing_weight=0.5
        )
        with kernel(name):
            res = stitch(d, fps, _GRID, params, module_delays={"m": 2.0})
        unplaced_area = sum(
            fps[d.instances[k].module].occupied_clbs
            for k in range(len(d.instances))
            if res.placements[f"i{k}"] is None
        )
        assert res.final_cost == (
            res.wirelength
            + params.unplaced_weight * unplaced_area
            + res.congestion_cost
            + res.timing_cost
        )

    def test_kernels_agree_with_route_terms(self):
        d, fps = _chain(8, feedback=True)
        params = SAParams(
            max_iters=2000, seed=5, congestion_weight=0.25, timing_weight=0.5
        )
        fast = stitch(d, fps, _GRID, params, module_delays={"m": 2.0})
        with reference_kernel():
            ref = stitch(d, fps, _GRID, params, module_delays={"m": 2.0})
        assert fast.placements == ref.placements
        assert fast.final_cost == ref.final_cost
        assert fast.congestion_cost == ref.congestion_cost
        assert fast.timing_cost == ref.timing_cost
        assert fast.history == ref.history
