"""repro.fleet — distributed multi-worker execution for the service layer.

One coordinator (asyncio front end + job queue + priority router) and N
pull-based workers, speaking the service's versioned wire protocol.  This
is the only server: ``mlpsim serve`` is a coordinator plus one in-process
worker.  See DESIGN.md ("Distributed fleet") for the topology, the lease
protocol and the failure semantics.

Quick start::

    from repro.fleet import FleetCoordinator, FleetWorker

    coord = FleetCoordinator(port=0).start()
    worker = FleetWorker(coord.url).join()
    # worker.run() in a thread/process; then submit jobs via
    # repro.api.connect(coord.url).
"""

from .frontend import FleetCoordinator, local_worker, serve_fleet
from .registry import WorkerInfo, WorkerRegistry
from .router import Router, TaskRecord
from .worker import FleetWorker, run_worker

__all__ = [
    "FleetCoordinator",
    "FleetWorker",
    "Router",
    "TaskRecord",
    "WorkerInfo",
    "WorkerRegistry",
    "local_worker",
    "run_worker",
    "serve_fleet",
]
