"""Exact-arithmetic proportional-representation seat apportionment.

Largest-remainder (Hare-Niemeyer), d'Hondt-Jefferson, and Sainte-Laguë
allocation in both their divisor-table and multiplicative forms, plus
two-stage (district-seeded) variants, a brute-force verification oracle,
and a CSV/JSON command-line front end.  All arithmetic is exact rational.
"""

from .methods import (
    DHONDT,
    HARE,
    METHODS,
    SAINTE_LAGUE,
    compute_quotas,
    hare_niemeyer,
    highest_averages,
    jump_allocation,
    multiplicative,
    seats_at_multiplier,
    sequential_hare,
)
from .oracle import (
    InstanceSpace,
    SuiteReport,
    bias_montecarlo,
    check_quota_property,
    enumerate_allocations,
    equivalence_suite,
    find_house_monotonicity_violation,
    find_quota_violation,
)
from .seeded import seeded_divisor, seeded_sequential_hare
from .serialize import (
    allocation_from_json,
    dumps,
    jsonify,
    quota_report_from_json,
    seeded_run_from_json,
    tally_from_json,
    trace_from_json,
)
from .types import (
    STOP_CAP,
    STOP_FIXED,
    STOP_RESIDUAL,
    Allocation,
    AwardLog,
    EnumerationGuardError,
    InputError,
    IterationGuardError,
    QuotaReport,
    SeedDistribution,
    SeededRun,
    TieEvent,
    TiePolicy,
    TraceTable,
    VoteTally,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AwardLog",
    "DHONDT",
    "EnumerationGuardError",
    "HARE",
    "InputError",
    "InstanceSpace",
    "IterationGuardError",
    "METHODS",
    "QuotaReport",
    "SAINTE_LAGUE",
    "STOP_CAP",
    "STOP_FIXED",
    "STOP_RESIDUAL",
    "SeedDistribution",
    "SeededRun",
    "SuiteReport",
    "TieEvent",
    "TiePolicy",
    "TraceTable",
    "VoteTally",
    "allocation_from_json",
    "bias_montecarlo",
    "check_quota_property",
    "compute_quotas",
    "dumps",
    "enumerate_allocations",
    "equivalence_suite",
    "find_house_monotonicity_violation",
    "find_quota_violation",
    "hare_niemeyer",
    "highest_averages",
    "jsonify",
    "jump_allocation",
    "multiplicative",
    "quota_report_from_json",
    "seats_at_multiplier",
    "seeded_divisor",
    "seeded_run_from_json",
    "seeded_sequential_hare",
    "sequential_hare",
    "tally_from_json",
    "trace_from_json",
]
