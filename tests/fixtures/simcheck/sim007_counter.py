"""Fixture: SIM007 — module-level counters shared by every simulation."""

import itertools
import itertools as it
from itertools import count, count as ticket

_ids = itertools.count(1)  # SIM007
_tokens = it.count()  # SIM007
_seq = count(1)  # SIM007
_tickets = ticket(5)  # SIM007


class Owner:
    def __init__(self):
        self._ids = itertools.count(1)  # OK: one per owner
        self._next = count(1).__next__  # OK


def fresh():
    return count(1)  # OK: built per call
