"""M: migratory-sharing optimization as a protocol extension
(§3.2 / §3.4).

Home-side only.  The detection/reversion *policy* stays in
:mod:`repro.core.migratory`; this extension wires it into the base
write-invalidate protocol:

* an ownership request from a sharer, with exactly one other copy
  belonging to the previous writer, marks the block migratory
  (``on_ownership_requested``, §3.2),
* a read miss to a migratory block is served with an exclusive
  (MIG_CLEAN) copy so the later write needs no ownership transaction
  (``grants_exclusive_read``); a *second* reader on a clean migratory
  block means read sharing and reverts the prediction,
* an exclusive grant fetched away from an owner that never wrote it
  was mispredicted and reverts too (``on_exclusive_read_transfer``).

Under CW+M the home never sees ownership requests for shared data;
detection then runs on update sequences inside the CW extension's
flush transactions (§3.4), still via the policy functions of
:mod:`repro.core.migratory`, and still counted in the home's
``migratory_detections`` / ``migratory_reversions`` counters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.core import migratory
from repro.core.extensions.base import ProtocolExtension
from repro.core.states import MemoryState

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.directory import DirectoryEntry
    from repro.core.home import HomeController
    from repro.core.messages import Message

#: bound once (see the enum rule in "Performance notes",
#: docs/internals.md)
_CLEAN = MemoryState.CLEAN


class MigratoryExtension(ProtocolExtension):
    """Migratory detection, exclusive read grants and reversion."""

    name = "M"

    def __init__(self, protocol: ProtocolConfig) -> None:
        self._protocol = protocol
        self._home: "HomeController | None" = None

    def attach_home(self, home: "HomeController") -> None:
        self._home = home

    def grants_exclusive_read(
        self, home: "HomeController", entry: "DirectoryEntry", msg: "Message"
    ) -> bool:
        if not migratory.grants_exclusive_read(self._protocol, entry):
            return False
        if entry.state is _CLEAN and migratory.reverts_on_second_reader(
            entry, msg.src
        ):
            # a second reader on a clean migratory block: the pattern
            # is no longer migratory.
            entry.migratory = False
            home.migratory_reversions += 1
            return False
        return True

    def on_ownership_requested(
        self, home: "HomeController", entry: "DirectoryEntry", msg: "Message"
    ) -> None:
        if migratory.detects_on_ownership(self._protocol, entry, msg):
            # read/write by last_writer followed by read/write by
            # msg.src: the block migrates (§3.2, refs [2, 12]).
            entry.migratory = True
            home.migratory_detections += 1

    def on_exclusive_read_transfer(
        self, home: "HomeController", entry: "DirectoryEntry", msg: "Message"
    ) -> None:
        if migratory.reverts_on_unmodified_transfer(msg.was_modified):
            # the previous owner never wrote: revert (§3.2)
            entry.migratory = False
            home.migratory_reversions += 1

    def stats_hooks(self) -> dict[str, int]:
        if self._home is None:
            return {}
        return {
            "detections": self._home.migratory_detections,
            "reversions": self._home.migratory_reversions,
        }
