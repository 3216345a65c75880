"""Shared-nothing cluster simulator.

The paper's execution environment (Section 2.1) is a shared-nothing
cluster: every node hosts a database instance with a local data partition,
a coordinator node manages a centralised system catalog, and all data moves
over a fully switched network. This subpackage simulates that environment
deterministically: chunk placement, the catalog, and a discrete-event model
of the greedy write-lock shuffle schedule of Section 3.4.
"""

from repro.cluster.catalog import ArrayEntry, SystemCatalog
from repro.cluster.cluster import Cluster, ClusterParams
from repro.cluster.network import (
    NetworkParams,
    ShuffleSchedule,
    Transfer,
    TransferTable,
    schedule_shuffle,
)
from repro.cluster.node import Node

__all__ = [
    "ArrayEntry",
    "Cluster",
    "ClusterParams",
    "NetworkParams",
    "Node",
    "ShuffleSchedule",
    "SystemCatalog",
    "Transfer",
    "TransferTable",
    "schedule_shuffle",
]
