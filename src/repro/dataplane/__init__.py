"""The columnar data plane: batch-first SPE/cluster/pulse representation.

Every layer of the pipeline exchanges these batch types instead of lists of
per-record dataclasses.  Records exist only at the two boundaries that need
them — ``SPE`` where the search kernels emit events, ``ClusterRecord`` for
the lenient per-row cluster-file fallback — and enter through
``from_records``.  See DESIGN.md § Data plane for the ownership and
zero-copy rules.
"""

from repro.dataplane._columns import MalformedRowError
from repro.dataplane.cluster_batch import ClusterBatch
from repro.dataplane.pulse_batch import N_FEATURES, PulseBatch
from repro.dataplane.spe_batch import SPEBatch

__all__ = [
    "SPEBatch",
    "ClusterBatch",
    "PulseBatch",
    "MalformedRowError",
    "N_FEATURES",
]
