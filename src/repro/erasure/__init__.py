"""Erasure-coded resilient storage (related work [10]/[12] territory).

The paper's Section VII contrasts plain PDP with schemes that *recover*
polluted data: Wang et al. [10] encode user data with erasure codes so
content survives partial corruption, and Cao et al. [12] use LT codes.
This package brings that capability to SEM-PDP without giving up any of
its properties:

* :mod:`repro.erasure.reed_solomon` — a systematic Reed–Solomon code over
  Z_p (Vandermonde evaluation encoding / Lagrange-interpolation decoding),
  operating directly on block *elements*, so coded blocks are ordinary
  SEM-PDP blocks and get blind-signed like any other;
* :mod:`repro.erasure.placement` — the explicit slot → server map for
  files striped across a fleet, including the derived per-slice SEM-PDP
  file ids;
* :mod:`repro.erasure.fleet` — the multi-cloud fleet store: stripes
  coded slots across many servers, audits them with one folded Eq. 6
  check per round that bisects to name the failing proofs
  (:meth:`~repro.core.verifier.PublicVerifier.failing`), quarantines
  failing servers via the :class:`~repro.service.cloud_health.CloudScoreboard`,
  and repairs lost slots by reconstruct → re-sign → re-upload,
  ledger-recorded.
"""

from repro.erasure.fleet import (
    FleetAuditReport,
    FleetRepairReport,
    FleetStore,
    RepairTask,
    ServerHandle,
    ServerUnavailable,
    build_demo_fleet,
)
from repro.erasure.placement import PlacementMap, StripePlacement, slice_file_id
from repro.erasure.reed_solomon import ReedSolomonCode

__all__ = [
    "FleetAuditReport",
    "FleetRepairReport",
    "FleetStore",
    "PlacementMap",
    "ReedSolomonCode",
    "RepairTask",
    "ServerHandle",
    "ServerUnavailable",
    "StripePlacement",
    "build_demo_fleet",
    "slice_file_id",
]
