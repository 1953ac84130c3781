"""DDR4 refresh engine.

Every tREFI, each rank executes a REF command that blocks all of its banks
for tRFC.  The engine is per-DIMM and *auto-dormant*: it arms itself when
the controller sees traffic and parks once the DIMM has been idle for a
couple of refresh intervals, so simulations still quiesce (the event queue
drains) while any active phase pays the full refresh tax.

Refresh matters to the reproduction in two ways: it steals ~4-5% of row
bandwidth from every configuration equally (keeping the relative results
honest), and it contributes the refresh term of the DRAMPower-style energy
model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dram.dimm import Dimm

#: Refresh energy per chip per REF command (8 Gb device, IDD5 envelope).
REFRESH_NJ_PER_CHIP = 0.9


class RefreshEngine:
    """Per-DIMM periodic refresh with idle dormancy."""

    #: Park after this many refresh intervals without any traffic.
    IDLE_INTERVALS = 2

    def __init__(self, dimm: "Dimm") -> None:
        self.dimm = dimm
        self.engine = dimm.engine
        self.timing = dimm.timing
        self._armed = False
        self._last_activity = 0
        self.refreshes = 0

    def notify_activity(self) -> None:
        """Controller hook: traffic arrived; make sure refresh is running."""
        self._last_activity = self.engine.now
        if not self._armed:
            self._armed = True
            self.engine.schedule(self.timing.trefi, self._tick)

    def _tick(self) -> None:
        now = self.engine.now
        if now - self._last_activity > self.IDLE_INTERVALS * self.timing.trefi:
            # Dormant: the DIMM is idle; re-armed on the next submit.
            self._armed = False
            return
        self._refresh_all_ranks()
        self.engine.schedule(self.timing.trefi, self._tick)

    def _refresh_all_ranks(self) -> None:
        dimm = self.dimm
        geo = dimm.geometry
        busy_until = self.engine.now + self.timing.trfc
        dimm.apply_refresh(busy_until)
        self.refreshes += 1
        dimm.stats.add("refreshes", 1)
        dimm.stats.add(
            "energy_refresh_nj",
            REFRESH_NJ_PER_CHIP * geo.ranks * geo.chips_per_rank,
        )
