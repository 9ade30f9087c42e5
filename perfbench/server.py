"""Serve one store from its own process for the ``wire_read_mostly`` workload.

Usage (started by ``run.py``; not meant to be run by hand)::

    python3 perfbench/server.py --dir STORE_DIR --report REPORT.json
        [--cpu N] [--spans SPANS.csv]

Opens a ``DurableStore`` with the default classical shards of 128 and
``common.SYNC_POLICY``, serves it through ``StoreService`` and
``StoreServer`` on an ephemeral loopback port, prints the port on one
line, and serves until its standard input closes.  It then closes the
store and writes a JSON report: peak RSS, the map's per-event move costs,
slot and key counts, WAL bytes and, when traced, one record per request
with its self time by layer.  With ``--spans`` the server is traced and
also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import common  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    common.pin_to(args.cpu)

    from repro.store.server import ServerThread
    from repro.store.service import StoreService
    from repro.store.store import DurableStore, WAL_FILENAME

    tracer = None
    store_kwargs: dict = {"sync_policy": common.SYNC_POLICY}
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install_store_stack(tracer)
        store_kwargs.update(
            algorithm="classical", shard_factory=tracing.traced_classical_factory(tracer)
        )
    store = DurableStore(args.dir, **store_kwargs)
    service = StoreService(store)
    with ServerThread(service) as server:
        print(server.address[1], flush=True)
        sys.stdin.read()
    service.close()

    report = {
        "rss_peak_mib": common.peak_rss_mib(),
        "costs": list(store.map.costs.costs),
        "num_slots": store.labeler.num_slots,
        "size": len(store),
        "wal_bytes": os.path.getsize(Path(args.dir) / WAL_FILENAME),
    }
    if tracer is not None:
        report["requests"] = [
            record for record in tracing.roots(tracer) if record[0].startswith("service.")
        ]
        tracer.write_csv(args.spans)
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
