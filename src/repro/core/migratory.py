"""Migratory-sharing policy (paper §3.2 / §3.4, refs [2, 12]).

Pure decision functions used by the home controller; keeping them here
separates the *policy* (when is a block migratory? when does it stop
being migratory?) from the *mechanism* (transactions, messages) in
:mod:`repro.core.home`.

Detection (write-invalidate side, §3.2): "A block is deemed migratory
if the home node has detected a read/write sequence by one processor
followed by a read/write sequence by another processor."  At the home
this materializes as an *ownership request* (the write half of an RMW)
from a processor holding a shared copy, while exactly one other copy
exists -- belonging to the previous writer.

Detection (competitive-update side, §3.4): the home only sees update
requests, so it uses a heuristic -- an update from a different
processor than the previous one, with more than one copy cached, makes
the block a migratory *candidate*; the home then interrogates every
copy holder, and only if all of them modified the block since the last
update (and therefore give up their copies) is it deemed migratory.

Reversion: the extra MIG_CLEAN cache state lets the home detect that
the pattern stopped -- when a migratory block is fetched away from an
owner that never wrote it, or when a second reader shows up on a clean
migratory block, the migratory bit is cleared.
"""

from __future__ import annotations

from repro.config import ProtocolConfig
from repro.core.directory import DirectoryEntry
from repro.core.messages import Message, MsgType

#: bound once (see the enum rule in "Performance notes",
#: docs/internals.md): the home applies these rules per request
_OWN_REQ = MsgType.OWN_REQ


def detects_on_ownership(
    protocol: ProtocolConfig, entry: DirectoryEntry, msg: Message
) -> bool:
    """§3.2 detection rule, applied when the home receives OWN_REQ.

    Only active for the pure write-invalidate M (under CW the home
    never sees ownership requests for shared data; §3.4 applies).
    """
    if not protocol.migratory or protocol.competitive_update:
        return False
    if msg.mtype is not _OWN_REQ:
        return False  # a write miss is not a read/write *sequence*
    others = entry.sharers - {msg.src}
    return len(others) == 1 and entry.last_writer in others


def wants_interrogation(
    protocol: ProtocolConfig, entry: DirectoryEntry, msg: Message
) -> bool:
    """§3.4 candidate rule, applied when the home receives WC_FLUSH.

    "If the number of cached copies is greater than one and the update
    request comes from another processor than the last update request,
    the block is potentially regarded as migratory."
    """
    if not (protocol.migratory and protocol.competitive_update):
        return False
    if len(entry.sharers) <= 1:
        return False
    if entry.last_updater is None or entry.last_updater == msg.src:
        return False
    return bool(entry.sharers - {msg.src})


def confirms_interrogation(targets: set[int], give_ups: set[int]) -> bool:
    """§3.4 confirmation: every interrogated holder gave up its copy."""
    return bool(targets) and give_ups == targets


def grants_exclusive_read(
    protocol: ProtocolConfig, entry: DirectoryEntry
) -> bool:
    """Serve a read miss to a clean migratory block with an exclusive
    copy (the core of the optimization: the later write needs no
    ownership transaction)."""
    return protocol.migratory and entry.migratory


def reverts_on_unmodified_transfer(was_modified: bool) -> bool:
    """A migratory block fetched away from an owner that never wrote
    it was mispredicted: revert (§3.2's extra cache state at work)."""
    return not was_modified


def reverts_on_second_reader(entry: DirectoryEntry, requester: int) -> bool:
    """A second reader on a *clean* migratory block means read sharing:
    stop handing out exclusive copies."""
    return bool(entry.sharers) and entry.sharers != {requester}
