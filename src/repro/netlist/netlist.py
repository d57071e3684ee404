"""Netlist aggregates and their builder.

The builder is the only way the synthesis simulator constructs netlists.
Placement and feature extraction consume only a module's statistics
(paper §V), so the builder counts primitives as they are added instead
of keeping one object per cell and net: per-kind counts, FFs per control
set, signal-net fanouts, carry-chain widths and logic depth.  It merges
duplicate control sets and validates every argument, so every
:class:`Netlist` is well formed by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_non_negative, check_positive

__all__ = ["Netlist", "NetlistBuilder"]


@dataclass(frozen=True)
class Netlist:
    """The aggregates of one technology-mapped module netlist.

    Attributes
    ----------
    name:
        Module name (unique within a block design).
    n_lut, n_ff, n_srl, n_lutram, n_bram, n_dsp:
        Primitive counts per kind (CARRY4 segments follow from
        ``carry_chains``).
    lut_inputs:
        Used LUT input pins, summed over all logic LUTs.
    ff_per_control_set:
        FF count of each control set that holds FFs.
    n_control_sets:
        Control sets used by at least one FF, SRL or LUTRAM.
    carry_chains:
        Bit width of each carry chain (a chain of ``b`` bits occupies
        ``ceil(b / 4)`` vertically contiguous slices).
    n_signal_nets, fanout_sum, max_fanout:
        Count and load pins of the signal nets; control (clock, reset,
        enable) nets ride dedicated routing and are left out.
    n_nets:
        All nets, control nets included.
    logic_depth:
        Estimated combinational LUT levels on the longest path (set by the
        synthesis simulator; feeds the timing model).
    """

    name: str
    n_lut: int
    n_ff: int
    n_srl: int
    n_lutram: int
    n_bram: int
    n_dsp: int
    lut_inputs: int
    ff_per_control_set: tuple[int, ...]
    n_control_sets: int
    carry_chains: tuple[int, ...]
    n_signal_nets: int
    fanout_sum: int
    max_fanout: int
    n_nets: int
    logic_depth: int


class NetlistBuilder:
    """Incrementally counts the primitives of a :class:`Netlist`.

    Every ``add_*`` method adds the cell(s) together with one output net
    per cell.  Fanouts default to 1 and can be overridden to model
    broadcast signals; a signal net needs at least one load.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._cs_index: dict[tuple[str, str, str], int] = {}
        self._cs_used: set[int] = set()
        self._ffs: dict[int, int] = {}
        self._carry_chains: list[int] = []
        self._n_lut = self._n_ff = self._n_srl = self._n_lutram = 0
        self._n_bram = self._n_dsp = self._lut_inputs = 0
        self._n_signal_nets = self._fanout_sum = self._max_fanout = 0
        self._n_control_nets = 0
        self._depth = 0

    # ------------------------------------------------------------------ control

    def control_set(self, clock: str, reset: str = "", enable: str = "") -> int:
        """Intern a (clock, reset, enable) control set (paper §V-B); returns
        its index, merging duplicates."""
        return self._cs_index.setdefault((clock, reset, enable), len(self._cs_index))

    def _add_outputs(self, n: int, fanout: int, cs_index: int | None = None) -> None:
        """Check the arguments of ``n`` new cells, then count their output
        nets and mark their control set used; a bad call changes nothing."""
        check_non_negative(n, "n")
        if fanout < 1:
            raise ValueError(f"signal net fanout must be >= 1, got {fanout}")
        if cs_index is not None and not 0 <= cs_index < len(self._cs_index):
            raise IndexError(f"control set {cs_index} not interned")
        if n:
            self._n_signal_nets += n
            self._fanout_sum += n * fanout
            self._max_fanout = max(self._max_fanout, fanout)
            if cs_index is not None:
                self._cs_used.add(cs_index)

    # ------------------------------------------------------------------ cells

    def add_lut(self, inputs: int = 4, fanout: int = 1) -> None:
        """Add one LUT and its output net."""
        self.add_luts(1, inputs=inputs, fanout=fanout)

    def add_luts(self, n: int, inputs: int = 4, fanout: int = 1) -> None:
        """Add ``n`` identical LUTs."""
        if not 1 <= inputs <= 6:
            raise ValueError(f"LUT inputs must be 1..6, got {inputs}")
        self._add_outputs(n, fanout)
        self._n_lut += n
        self._lut_inputs += n * inputs

    def add_ff(self, cs_index: int, fanout: int = 1) -> None:
        """Add one flip-flop in control set ``cs_index``."""
        self.add_ffs(1, cs_index, fanout=fanout)

    def add_ffs(self, n: int, cs_index: int, fanout: int = 1) -> None:
        """Add ``n`` flip-flops sharing one control set."""
        self._add_outputs(n, fanout, cs_index)
        self._n_ff += n
        if n:
            self._ffs[cs_index] = self._ffs.get(cs_index, 0) + n

    def add_carry_chain(self, bits: int, fanout: int = 1) -> int:
        """Add a carry chain of ``bits`` bits (one CARRY4 per started
        4-bit segment) and its output net; returns the chain id."""
        self.add_carry_chains(1, bits, fanout=fanout)
        return len(self._carry_chains) - 1

    def add_carry_chains(self, n: int, bits: int, fanout: int = 1) -> None:
        """Add ``n`` identical carry chains, in order after the chains
        added so far."""
        check_positive(bits, "bits")
        self._add_outputs(n, fanout)
        self._carry_chains.extend([bits] * n)

    def add_srl(self, cs_index: int, depth: int = 16, fanout: int = 1) -> None:
        """Add one shift-register LUT (M-slice site)."""
        self.add_srls(1, cs_index, depth=depth, fanout=fanout)

    def add_srls(self, n: int, cs_index: int, depth: int = 16, fanout: int = 1) -> None:
        """Add ``n`` SRLs sharing one control set."""
        if not 1 <= depth <= 32:
            raise ValueError(f"SRL depth must be 1..32, got {depth}")
        self._add_outputs(n, fanout, cs_index)
        self._n_srl += n

    def add_lutram(self, cs_index: int, fanout: int = 1) -> None:
        """Add one distributed-RAM LUT (M-slice site)."""
        self.add_lutrams(1, cs_index, fanout=fanout)

    def add_lutrams(self, n: int, cs_index: int, fanout: int = 1) -> None:
        """Add ``n`` LUTRAMs sharing one control set."""
        self._add_outputs(n, fanout, cs_index)
        self._n_lutram += n

    def add_bram(self, n: int = 1, fanout: int = 2) -> None:
        """Add ``n`` BRAM36 instances."""
        self._add_outputs(n, fanout)
        self._n_bram += n

    def add_dsp(self, n: int = 1, fanout: int = 1) -> None:
        """Add ``n`` DSP48 instances."""
        self._add_outputs(n, fanout)
        self._n_dsp += n

    def add_broadcast_net(self, fanout: int, is_control: bool = False) -> None:
        """Add a net without a cell (module input / global broadcast)."""
        if is_control:
            check_non_negative(fanout, "fanout")
            self._n_control_nets += 1
        else:
            self._add_outputs(1, fanout)

    # ------------------------------------------------------------------ meta

    def bump_depth(self, levels: int) -> None:
        """Extend the longest combinational path by ``levels`` LUT levels."""
        check_non_negative(levels, "levels")
        self._depth += levels

    def set_min_depth(self, levels: int) -> None:
        """Ensure the depth estimate is at least ``levels``."""
        self._depth = max(self._depth, levels)

    def build(self) -> Netlist:
        """Finalize and return the netlist."""
        return Netlist(
            name=self.name,
            n_lut=self._n_lut,
            n_ff=self._n_ff,
            n_srl=self._n_srl,
            n_lutram=self._n_lutram,
            n_bram=self._n_bram,
            n_dsp=self._n_dsp,
            lut_inputs=self._lut_inputs,
            ff_per_control_set=tuple(self._ffs.values()),
            n_control_sets=len(self._cs_used),
            carry_chains=tuple(self._carry_chains),
            n_signal_nets=self._n_signal_nets,
            fanout_sum=self._fanout_sum,
            max_fanout=self._max_fanout,
            n_nets=self._n_signal_nets + self._n_control_nets,
            logic_depth=self._depth,
        )
