"""Coherence-protocol messages.

Message sizes drive the network-traffic results (Figure 4) and mesh
contention (Table 3):

* control messages carry a header only (8 bytes),
* block-data messages carry header + a 32-byte block,
* partial-update messages (write-cache flushes and their propagation)
  carry header + 4 bytes per dirty word -- the selective-word
  transmission of §3.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum, auto


class MsgType(IntEnum):
    """All message kinds exchanged between caches and homes.

    An :class:`~enum.IntEnum` rather than a plain ``Enum`` so that the
    hot-path dict dispatch and frozenset membership tests
    (``HOME_BOUND``, the controllers' handler tables) hash at C speed
    instead of through ``Enum.__hash__``.
    """

    # requester -> home
    RD_REQ = auto()        # read miss (``prefetch`` flag for P requests)
    RDX_REQ = auto()       # write miss: fetch block + ownership
    OWN_REQ = auto()       # upgrade: ownership for an already-SHARED copy
    WB = auto()            # dirty-block writeback (eviction / demotion)
    REPL = auto()          # replacement hint for a shared copy
    WC_FLUSH = auto()      # CW: write-cache flush with dirty words
    LOCK_REQ = auto()
    LOCK_REL = auto()
    BAR_ARRIVE = auto()

    # home -> cache
    RD_RPL = auto()        # data reply (``grant`` = SHARED or MIG_CLEAN)
    RDX_RPL = auto()       # data + ownership reply
    OWN_ACK = auto()       # ownership granted (no data needed)
    INV = auto()           # invalidate your copy
    FETCH = auto()         # dirty owner: send data to requester, demote
    FETCH_INV = auto()     # dirty owner: send data to requester, invalidate
    UPD_PROP = auto()      # CW: update propagation to a sharer
    MIG_QUERY = auto()     # CW+M: interrogation of copy holders (§3.4)
    WC_ACK = auto()        # CW: flush complete (``exclusive`` flag)
    WB_ACK = auto()
    LOCK_GRANT = auto()
    LOCK_REL_ACK = auto()  # release globally performed (SC accounting)
    BAR_WAKE = auto()

    # cache -> home (completions)
    INV_ACK = auto()
    UPD_ACK = auto()       # ``drop`` flag: copy self-invalidated
    MIG_RPL = auto()       # CW+M: ``give_up`` flag
    XFER_ACK = auto()      # owner finished a FETCH/FETCH_INV
                           # (``was_modified``, carries data when dirty)


#: messages the *home controller* of the destination node handles.
HOME_BOUND = frozenset(
    {
        MsgType.RD_REQ,
        MsgType.RDX_REQ,
        MsgType.OWN_REQ,
        MsgType.WB,
        MsgType.REPL,
        MsgType.WC_FLUSH,
        MsgType.LOCK_REQ,
        MsgType.LOCK_REL,
        MsgType.BAR_ARRIVE,
        MsgType.INV_ACK,
        MsgType.UPD_ACK,
        MsgType.MIG_RPL,
        MsgType.XFER_ACK,
    }
)

HEADER_BYTES = 8
BLOCK_BYTES = 32
WORD_BYTES = 4

#: message kinds that carry a whole data block (FETCH / FETCH_INV are
#: control-only forwards; the data travels in the owner's RD_RPL and
#: in its XFER_ACK writeback when dirty).
_BLOCK_CARRIERS = frozenset(
    {MsgType.RD_RPL, MsgType.RDX_RPL, MsgType.WB}
)

#: per-type message size, indexed by ``int(mtype)``; -1 marks the
#: kinds whose size depends on the payload (dirty-word count, carried
#: writeback), which the ``size_bytes`` property computes.  The
#: transport hot path reads this table directly.
_VARIABLE_SIZE = frozenset(
    {MsgType.WC_FLUSH, MsgType.UPD_PROP, MsgType.XFER_ACK, MsgType.INV_ACK}
)
SIZE_BY_TYPE: list[int] = [HEADER_BYTES] * (max(MsgType) + 1)
#: per-type message name, indexed by ``int(mtype)`` (the network
#: accounting keys); avoids the enum ``_name_`` descriptor on the
#: transport hot path.
MSG_NAMES: list[str] = [""] * (max(MsgType) + 1)
for _mt in MsgType:
    MSG_NAMES[_mt] = _mt._name_
    if _mt in _VARIABLE_SIZE:
        SIZE_BY_TYPE[_mt] = -1
    elif _mt in _BLOCK_CARRIERS:
        SIZE_BY_TYPE[_mt] = HEADER_BYTES + BLOCK_BYTES
del _mt

#: bound once: ``size_bytes`` reads it per message (see the enum rule
#: in "Performance notes", docs/internals.md)
_XFER_ACK = MsgType.XFER_ACK


@dataclass(slots=True)
class Message:
    """One protocol message in flight.

    For the bus occupancy the transport (``System._send``) reads
    :data:`SIZE_BY_TYPE` and inlines the variable-size rule of
    ``size_bytes``, so a change to that rule is made in both places.
    """

    mtype: MsgType
    src: int
    dst: int
    block: int = -1
    #: node that originated the transaction (forwards keep it).
    requester: int = -1
    #: P: this read request is a (non-binding) prefetch.
    prefetch: bool = False
    #: CW: number of dirty words carried (WC_FLUSH / UPD_PROP / INV_ACK).
    words: int = 0
    #: grant for RD_RPL: "S" (shared) or "MC" (exclusive / migratory).
    grant: str = "S"
    #: XFER_ACK: the owner had modified the block since receiving it.
    was_modified: bool = False
    #: UPD_ACK: the sharer dropped its copy (competitive counter expired).
    drop: bool = False
    #: MIG_RPL: the interrogated cache gave up its copy.
    give_up: bool = False
    #: WC_ACK: the home granted exclusivity to the flusher.
    exclusive: bool = False
    #: generic small-integer payload (barrier ids, lock cookies).
    tag: int = field(default=0)

    @property
    def size_bytes(self) -> int:
        """Bytes this message occupies on the network."""
        size = SIZE_BY_TYPE[self.mtype]
        if size >= 0:
            return size
        if self.mtype is _XFER_ACK:
            return (
                HEADER_BYTES + BLOCK_BYTES if self.was_modified else HEADER_BYTES
            )
        # WC_FLUSH / UPD_PROP / INV_ACK: selective-word transmission
        return HEADER_BYTES + WORD_BYTES * self.words

    @property
    def carries_data(self) -> bool:
        """True if this message carries any payload beyond the header."""
        return self.size_bytes > HEADER_BYTES
