"""The one cluster every stage shares (Fig. 2: HDFS + Spark over YARN).

:func:`open_cluster` is the only place outside ``cli.py``'s paper-testbed
injection where a :class:`~repro.dfs.DFSClient` or a
:class:`~repro.sparklet.context.SparkletContext` is built, and the only
place an :class:`~repro.execution.ExecutionConfig` is fanned out into
context arguments.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.dfs import DataNode, DFSClient
from repro.execution import ExecutionConfig
from repro.sparklet.context import SparkletContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.memo.config import MemoSession
    from repro.obs import ObsSession

__all__ = ["open_cluster"]

#: Shape of the default in-memory cluster.  Output rows do not depend on
#: it; block placement and locality metrics do.
N_DATANODES = 4
REPLICATION = 2
DEFAULT_PARALLELISM = 4


@contextmanager
def open_cluster(
    execution: ExecutionConfig | None = None,
    obs: "ObsSession | None" = None,
    *,
    app_name: str,
    memo: "MemoSession | None" = None,
    dfs: DFSClient | None = None,
    ctx: SparkletContext | None = None,
) -> Iterator[tuple[DFSClient, SparkletContext]]:
    """Yield the run's ``(dfs, ctx)``, building whichever was not injected.

    Fields ``execution`` leaves unspecified are resolved against the
    environment by the context itself.  On exit — normal or by exception —
    ``memo`` is closed, and so is the context if it was built here.  An injected
    ``dfs``/``ctx`` belongs to the caller and is left open; an injected
    context keeps its own memo session.
    """
    with ExitStack() as stack:
        if memo is not None:
            stack.callback(memo.close)
        if dfs is None:
            dfs = DFSClient([DataNode(f"dn{i}") for i in range(N_DATANODES)],
                            replication=REPLICATION, obs=obs)
        if ctx is None:
            cfg = execution or ExecutionConfig()
            ctx = stack.enter_context(SparkletContext(
                app_name=app_name, default_parallelism=DEFAULT_PARALLELISM,
                obs=obs, backend=cfg.backend, num_workers=cfg.num_workers,
                memo=memo,
            ))
        yield dfs, ctx
