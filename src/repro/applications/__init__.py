"""Application layers built on top of list labeling.

The paper's introduction motivates list labeling through its database uses:
packed-memory arrays as clustered index layouts, and order maintenance for
ordered collections.  This subpackage provides the two classic application
wrappers so downstream users can adopt the layered structure without dealing
in ranks directly:

* :class:`~repro.applications.ordered_map.PackedMemoryMap` — a sorted
  key→value map (insert / get / delete / predecessor / range scan) whose
  physical layout is any :class:`repro.core.interface.ListLabeler`;
* :class:`~repro.applications.order_maintenance.OrderMaintenance` — the
  Dietz–Sleator order-maintenance interface (``insert_after``,
  ``insert_before``, ``precedes``) implemented with list-labeling labels.

The clustered index made crash-safe is :class:`repro.store.DurableStore`,
whose ``map`` is an unbounded :class:`PackedMemoryMap`.
"""

from repro.applications.ordered_map import PackedMemoryMap
from repro.applications.order_maintenance import OrderMaintenance

__all__ = ["OrderMaintenance", "PackedMemoryMap"]
