"""Placement simulator.

Three pieces, mirroring the paper's Fig. 1 pipeline:

* :mod:`repro.place.quick` — the fast resource-based placement RapidWright
  runs after synthesis; produces the shape report and the naive slice
  estimate that the correction factor multiplies;
* :mod:`repro.place.packer` — the detailed intra-PBlock placer deciding
  whether a module fits a given PBlock (the ground truth behind the
  minimal feasible CF), producing the occupied-slice *footprint*;
* :mod:`repro.place.congestion` — the routability ceiling (paper §V-D).
"""

from repro.place.congestion import routable_utilization
from repro.place.packer import PackDemand, PackResult, pack, pack_demand
from repro.place.quick import ShapeReport, quick_place
from repro.place.render import render_footprint, render_side_by_side
from repro.place.shapes import Footprint

__all__ = [
    "Footprint",
    "PackDemand",
    "PackResult",
    "ShapeReport",
    "pack",
    "pack_demand",
    "quick_place",
    "render_footprint",
    "render_side_by_side",
    "routable_utilization",
]
