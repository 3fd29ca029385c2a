"""Root-relative state fingerprints for state-space exploration.

The bounded analyses (Definition-5 safety runs, administrative
reachability, the HRU encodings) deduplicate explored policy states.
The frozenset representation hashes a full ``edge_set()`` snapshot per
candidate state — O(state) time and allocation on every probe.  The
compiled representation maintained here is a **big-int bitmask** of
the *symmetric difference* from the exploration's root state: the root
is ``0``, every state *atom* (a vertex, an edge as a ``(source,
target)`` pair — policy vertices are never tuples, so the kinds cannot
collide — or an access-matrix cell) a mutation changes gets one bit on
first sight, and the mutation XORs in its changed atoms' bits.  A state
is determined by its difference from the root, so two states of one
exploration are equal iff their fingerprints are; values from
different explorations are not comparable.  ``seen`` tests hash ints.

Canonicalization and interner ID recycling
------------------------------------------

The slot table is keyed by the atom **values** themselves (entities
hash by name, privilege terms structurally), *not* by the graph's
interned vertex IDs (:meth:`~repro.graph.digraph.Digraph.vid`).  The
interner recycles IDs through a free-list: a privilege vertex
garbage-collected by a revoke and re-introduced by a later grant — or a
user deprovisioned and re-provisioned — may come back under a
*different* ID, and two states that are equal as (vertex set, edge set)
pairs could then carry different ID-indexed masks.  The value-keyed
slot table is the remap that makes the fingerprint stable across such
recycling: equal states always map to equal fingerprints, and distinct
states to distinct fingerprints (each atom owns exactly one bit — the
fingerprint is an exact encoding of the difference set, not a hash, so
there are no collisions to reason about).

Two states that differ only in an *isolated* vertex (a user
deprovisioned and re-added with no memberships) differ in their vertex
atoms, so the fingerprint distinguishes them — matching
:meth:`repro.core.policy.Policy.__eq__`, which compares vertex sets as
well as edge sets.  (The pre-compilation explorers deduplicated on
``edge_set()`` alone and collapsed such states; see the regression
tests in ``tests/analysis/test_explore.py``.)
"""

from __future__ import annotations

from typing import Hashable


class StateFingerprint:
    """An incrementally maintained exact bitmask over state atoms.

    ``value`` is the current fingerprint, ``0`` at the root state.
    :meth:`toggle` flips one atom in or out (the caller toggles exactly
    the atoms its mutation changed); an undo restores a previously read
    ``value`` directly.  Slots are never recycled — the table grows to
    the set of atoms ever changed, which for bounded exploration is at
    most the candidate universe's edges and vertices.
    """

    __slots__ = ("_slots", "value")

    def __init__(self):
        self._slots: dict[Hashable, int] = {}
        self.value = 0

    def bit(self, atom: Hashable) -> int:
        """The bit owned by ``atom``, assigned on first sight."""
        slot = self._slots.get(atom)
        if slot is None:
            slot = self._slots[atom] = 1 << len(self._slots)
        return slot

    def toggle(self, atom: Hashable) -> None:
        """Flip ``atom``'s presence in the fingerprint."""
        self.value ^= self.bit(atom)

    @property
    def atoms_interned(self) -> int:
        """Number of distinct atoms ever assigned a slot (diagnostic)."""
        return len(self._slots)

    def __repr__(self) -> str:
        return (
            f"StateFingerprint(atoms={len(self._slots)}, "
            f"bits={bin(self.value).count('1')})"
        )
