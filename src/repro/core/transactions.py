"""Transient directory-state transactions.

The home controller realizes transient directory states as per-block
:class:`Xact` records; requests that hit a busy block are queued and
replayed in order, which makes the home the serialization point
exactly as in the paper.  The record lives in its own module so that
protocol extensions (:mod:`repro.core.extensions`) can open their own
transactions without importing the home controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.messages import Message


@dataclass(slots=True)
class Xact:
    """One in-flight (transient-state) transaction on a block."""

    kind: str                     # 'fetch_read' | 'fetchinv_read' |
                                  # 'fetchinv_write' | 'inv' | 'upd' |
                                  # 'migq' | 'fetch_flush'
    orig: Message
    acks_left: int = 0
    needs_data: bool = False
    old_owner: int | None = None
    #: 'upd': sharers that dropped their copy
    droppers: set[int] = field(default_factory=set)
    #: 'migq': interrogated holders that gave up their copy
    give_ups: set[int] = field(default_factory=set)
    #: 'migq': the interrogated holders
    targets: set[int] = field(default_factory=set)
