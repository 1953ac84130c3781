"""DIMM device model: banks, chips, energy, and kind."""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from repro.dram.bank import Bank
from repro.dram.chip import ChipAccessCounters
from repro.dram.refresh import RefreshEngine
from repro.dram.power import DramEnergyModel, DramEnergyParams
from repro.dram.timing import DimmGeometry, DramTiming
from repro.sim.component import Component


class DimmKind(enum.Enum):
    """Which flavour of DIMM this is."""

    #: Unmodified CXL-DIMM: lockstep rank access only, no NDP logic.
    UNMODIFIED_CXL = "unmodified_cxl"
    #: CXLG-DIMM: NDP module on the PCB, per-chip chip selects (BEACON-D).
    CXLG = "cxlg"
    #: Customized DDR-DIMM of the prior work (MEDAL/NEST), also per-chip CS.
    DDR_CUSTOM = "ddr_custom"
    #: Plain DDR-DIMM (CPU baseline memory).
    DDR_PLAIN = "ddr_plain"

    @property
    def fine_grained(self) -> bool:
        """Whether per-chip chip-select access is available."""
        return self in (DimmKind.CXLG, DimmKind.DDR_CUSTOM)


class Dimm(Component):
    """One DIMM: bank state machines per (rank, chip, bank) plus accounting.

    Bank state is tracked per *chip* so that chip groups of any width —
    lockstep ranks, single chips, coalesced multi-chip groups — interact
    correctly when regions with different mappings share a DIMM.
    """

    def __init__(
        self,
        engine,
        name: str,
        parent,
        kind: DimmKind,
        geometry: DimmGeometry = DimmGeometry(),
        timing: DramTiming = DramTiming(),
        energy_params: DramEnergyParams = DramEnergyParams(),
    ) -> None:
        super().__init__(engine, name, parent)
        self.kind = kind
        self.geometry = geometry
        self.timing = timing
        # Flat bank array indexed by (rank, chip, bank) — this is the
        # simulator's hottest data structure.  The geometry scalars the
        # index math needs are hoisted to plain ints here; going through
        # the DimmGeometry properties costs a descriptor call per lookup.
        self._banks_per_chip = geometry.banks
        self._chips_per_rank = geometry.chips_per_rank
        self._banks_per_rank = geometry.chips_per_rank * geometry.banks
        # Bank state objects materialize lazily on first touch: a sweep
        # configuration builds hundreds of DIMMs whose workloads often hit
        # only a fraction of the bank space, and constructing the full
        # array dominated small-figure setup profiles.  An untouched bank
        # is indistinguishable from a fresh one (refresh only clamps
        # ``free_at`` forward and closes rows — both no-ops on idle banks).
        self._banks: List[Optional[Bank]] = [None] * (
            geometry.ranks * self._banks_per_rank
        )
        # Chip-group -> bank-object list memo for the controller's planning
        # loop.  Bank objects live for the DIMM's lifetime, so entries never
        # invalidate; the key space is bounded by (ranks x groups x banks).
        self._group_memo: Dict[Tuple[int, int, int, int], List[Bank]] = {}
        self.chip_counters = ChipAccessCounters(geometry)
        # Per-(rank, chip) data-bus availability, flat.
        self._chip_free_at: List[int] = [0] * (
            geometry.ranks * geometry.chips_per_rank
        )
        self.energy = DramEnergyModel(
            self.stats,
            total_chips=geometry.ranks * geometry.chips_per_rank,
            tck_ns=timing.tck_ns,
            params=energy_params,
        )
        self.refresh = RefreshEngine(self)

    def bank(self, rank: int, chip: int, bank: int) -> Bank:
        index = rank * self._banks_per_rank + chip * self._banks_per_chip + bank
        entry = self._banks[index]
        if entry is None:
            entry = self._banks[index] = Bank()
        return entry

    def bank_group(
        self, rank: int, first_chip: int, chips_per_group: int, bank: int
    ) -> List[Bank]:
        """The ``bank``-index banks of one chip group, in chip order.

        Memoized: the controller re-plans the same (rank, group, bank)
        combinations constantly and the bank objects never move.  Callers
        must not mutate the returned list.
        """
        key = (rank, first_chip, chips_per_group, bank)
        try:
            return self._group_memo[key]
        except KeyError:
            banks = self._banks
            base = rank * self._banks_per_rank + bank
            per_chip = self._banks_per_chip
            group = []
            for chip in range(first_chip, first_chip + chips_per_group):
                index = base + chip * per_chip
                entry = banks[index]
                if entry is None:
                    entry = banks[index] = Bank()
                group.append(entry)
            self._group_memo[key] = group
            return group

    def set_group_free_at(
        self, rank: int, first_chip: int, chips: int, time: int
    ) -> None:
        """Advance every data bus of one chip group to ``time``."""
        base = rank * self._chips_per_rank + first_chip
        free = self._chip_free_at
        for index in range(base, base + chips):
            free[index] = time

    def chip_free_window(self, rank: int, first_chip: int) -> Tuple[List[int], int]:
        """The flat bus-availability list and the index of ``first_chip``.

        The controller's planning loop reads one bus slot per chip in a
        group; handing it the backing list plus a base index turns those
        reads into plain subscripts.  The list is mutated in place and
        never rebound, so the reference stays valid for the DIMM's life.
        """
        return self._chip_free_at, rank * self._chips_per_rank + first_chip

    def apply_refresh(self, busy_until: int) -> None:
        """Block every bank and chip bus until ``busy_until`` (REF for all
        ranks) and close all rows.

        Flat sweeps over the state arrays on behalf of the refresh engine —
        the triple (rank, chip, bank) loop through :meth:`bank` showed up in
        profiles.
        """
        for bank in self._banks:
            if bank is None:
                # Never-touched bank: clamping ``free_at`` forward and
                # closing the (already closed) row would be no-ops.
                continue
            if bank.free_at < busy_until:
                bank.free_at = busy_until
            # REF implicitly precharges every row.
            bank.open_row = None
        free = self._chip_free_at
        for index, at in enumerate(free):
            if at < busy_until:
                free[index] = busy_until

    def validate_group(self, chips_per_group: int) -> None:
        """Reject fine-grained access on DIMMs that cannot do it."""
        if chips_per_group < self.geometry.chips_per_rank and not self.kind.fine_grained:
            raise ValueError(
                f"{self.path}: {self.kind.value} DIMMs only support lockstep "
                f"rank access, got group of {chips_per_group} chips"
            )

    # -- aggregate statistics ---------------------------------------------------

    @property
    def total_activations(self) -> int:
        return sum(b.activations for b in self._banks if b is not None)

    @property
    def total_row_hits(self) -> int:
        return sum(b.row_hits for b in self._banks if b is not None)

    @property
    def total_row_conflicts(self) -> int:
        return sum(b.row_conflicts for b in self._banks if b is not None)
