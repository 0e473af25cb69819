"""The TNIC network library (§6): programming APIs and transformation.

* :mod:`~repro.api.connection` — node/connection setup: ``ibv_qp_conn``,
  ``alloc_mem``, ``init_lqueue``, ``ibv_sync`` (Table 1, initialisation
  APIs) plus the :class:`~repro.api.connection.Cluster` convenience that
  stands up a simulated multi-node deployment.
* :mod:`~repro.api.ops` — network APIs: ``auth_send``, ``local_send``,
  ``local_verify``, ``poll``, ``rem_read``, ``rem_write``.
* :mod:`~repro.api.multicast` — equivocation-free multicast (§6.1).
* :mod:`~repro.api.rpc` — request/response RPC over ``auth_send``.
* :mod:`~repro.api.transform` — the generic CFT→BFT transformation
  recipe of §6.2 (Listing 1): wrapper ``send``/``recv`` functions that
  add state simulation and view checks over the TNIC primitives.

``rpc`` and ``transform`` are imported from their modules, not from
here: no datapath run uses them.
"""

from repro.api.connection import Cluster, IbvConnection, SessionDirectory, TnicNode
from repro.api.multicast import EquivocationDetected, MulticastGroup, MulticastReceiver
from repro.api.ops import (
    auth_send,
    local_send,
    local_verify,
    poll,
    rem_read,
    rem_write,
)

__all__ = [
    "Cluster",
    "EquivocationDetected",
    "IbvConnection",
    "MulticastGroup",
    "MulticastReceiver",
    "SessionDirectory",
    "TnicNode",
    "auth_send",
    "local_send",
    "local_verify",
    "poll",
    "rem_read",
    "rem_write",
]
