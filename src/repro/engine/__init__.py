"""The Section 7 implementation strategy: disjoint actions and subcubes."""

from .disjoint import DisjointAction, disjoint_actions
from .durable import (
    DurableStore,
    Journal,
    JournalRecord,
    RecoveryReport,
    open_durable,
)
from .faults import (
    FAILPOINTS,
    SERVING_FAILPOINTS,
    SHARD_FAILPOINTS,
    DiskFault,
    FaultInjector,
    InjectedFault,
    SlowFault,
)
from .planner import CubePlanStep, QueryPlan, explain_plan
from .queryproc import (
    QueryPlanCache,
    SubcubeQuery,
    combine_subresults,
    effective_content,
    plan_cache,
    query_cube,
    query_store,
)
from .store import AuditReport, SubcubeStore
from .subcube import SubCube
from .sync import (
    MigrationEvent,
    SyncScheduler,
    flow_report,
    significant_period_days,
)

__all__ = [
    "AuditReport",
    "CubePlanStep",
    "DisjointAction",
    "DiskFault",
    "DurableStore",
    "FAILPOINTS",
    "FaultInjector",
    "InjectedFault",
    "SERVING_FAILPOINTS",
    "SHARD_FAILPOINTS",
    "SlowFault",
    "Journal",
    "JournalRecord",
    "QueryPlan",
    "explain_plan",
    "MigrationEvent",
    "QueryPlanCache",
    "RecoveryReport",
    "SubCube",
    "SubcubeQuery",
    "SubcubeStore",
    "SyncScheduler",
    "combine_subresults",
    "disjoint_actions",
    "effective_content",
    "flow_report",
    "open_durable",
    "plan_cache",
    "query_cube",
    "query_store",
    "significant_period_days",
]
