"""The ``serve-sim`` flag set as an ordinary scenario document.

``repro-pdp serve-sim`` predates the scenario engine; its flag set
(``--clients/--requests/--threshold/--crash/--chaos/...``) describes
exactly one shape of run — a single SEM group ``main``, one batch-arrival
cohort ``clients``, everything issued at t = 0.
:func:`scenario_from_legacy_args` translates the flags into that
:class:`~repro.scenarios.schema.Scenario`, so the flag path and
``--scenario FILE`` compile through the same
:func:`~repro.scenarios.compile.compile_scenario`.  A ``--chaos`` plan
becomes ``settings.faults``, its node names mapped onto the compiled
ones (``service`` → ``svc-main``, ``sem-j`` → ``sem-main-j``) and then
validated like any other document's fault targets.
"""

from __future__ import annotations

import dataclasses
import re
import warnings

from repro.net.faults import Fault, FaultPlan
from repro.scenarios.schema import (
    ArrivalSpec,
    BatchSpec,
    CohortSpec,
    EnvelopeSpec,
    FailoverSpec,
    LinkParams,
    RunSettings,
    Scenario,
    SEMGroupSpec,
    SizeSpec,
    TopologySpec,
    WorkloadSpec,
)

#: serve-sim flags subsumed by the scenario document, with their argparse
#: defaults — used to detect (and warn about) mixing them with --scenario.
LEGACY_FLAG_DEFAULTS = {
    "param_set": "toy-64",
    "k": 4,
    "threshold": None,
    "clients": 2,
    "requests": 2,
    "file_bytes": 64,
    "max_batch": 16,
    "max_wait": 0.02,
    "timeout": 0.5,
    "latency": 0.005,
    "drop_rate": 0.0,
    "crash": 0,
    "seed": 0,
    "round_deadline": None,
    "chaos": None,
    "chaos_seed": None,
    "journal": None,
}

_warned_mixed = False


def warn_if_mixed(args) -> list[str]:
    """Warn (once per process) when legacy flags accompany ``--scenario``.

    Returns the non-default flag names, so callers can test the detection
    without capturing warnings.
    """
    global _warned_mixed
    overridden = [
        flag for flag, default in LEGACY_FLAG_DEFAULTS.items()
        if getattr(args, flag, default) != default
    ]
    if overridden and not _warned_mixed:
        _warned_mixed = True
        warnings.warn(
            "serve-sim: legacy flags ("
            + ", ".join("--" + f.replace("_", "-") for f in sorted(overridden))
            + ") are ignored when --scenario is given; move them into the "
            "scenario document",
            DeprecationWarning,
            stacklevel=3,
        )
    return overridden


def _compiled_name(name: str) -> str:
    """A flag-run node name as the flag document compiles it."""
    if name == "service":
        return "svc-main"
    match = re.fullmatch(r"sem-(\d+)", name)
    return f"sem-main-{match.group(1)}" if match else name


def _retarget(fault: Fault) -> Fault:
    return dataclasses.replace(
        fault,
        node=fault.node and _compiled_name(fault.node),
        links=tuple((_compiled_name(a), _compiled_name(b)) for a, b in fault.links),
    )


def scenario_from_legacy_args(args) -> Scenario:
    """The flag set as a validated in-memory scenario document.

    The envelope requires every request to complete, which is the flag
    path's exit rule.  Raises :class:`ScenarioError` for an invalid
    document, :class:`OSError` or :class:`ValueError` for an unreadable
    ``--chaos`` plan.
    """
    threshold = args.threshold if args.threshold and args.threshold > 1 else None
    t = threshold or 1
    w = 1 if threshold is None else 2 * threshold - 1
    link = LinkParams(latency_s=args.latency, drop_rate=args.drop_rate)
    requests = args.clients * args.requests
    faults, fault_seed, fault_plan_name = (), None, ""
    if args.chaos:
        plan = FaultPlan.from_file(args.chaos, seed=args.chaos_seed)
        faults = tuple(_retarget(fault) for fault in plan.faults)
        fault_seed, fault_plan_name = plan.seed, plan.name or str(args.chaos)
    return Scenario(
        name="serve-sim-legacy",
        description="synthesized from serve-sim flags",
        workload=WorkloadSpec(cohorts=(
            CohortSpec(
                name="clients",
                members=args.clients,
                target="main",
                arrival=ArrivalSpec(kind="batch",
                                    requests_per_member=args.requests),
                file_sizes=SizeSpec(kind="fixed", bytes=args.file_bytes,
                                    max_bytes=args.file_bytes),
            ),
        )),
        topology=TopologySpec(
            sem_groups=(
                SEMGroupSpec(name="main", w=w, t=t,
                             initial_crashed=args.crash, sem_link=link),
            ),
            default_link=link,
        ),
        settings=RunSettings(
            duration_s=3600.0,  # flag runs drain the queue, not a clock
            seed=args.seed,
            param_set=args.param_set,
            k=args.k,
            max_requests=max(1, requests),
            batch=BatchSpec(max_batch=args.max_batch, max_wait_s=args.max_wait),
            failover=FailoverSpec(timeout_s=args.timeout,
                                  round_deadline_s=args.round_deadline),
            faults=faults,
            fault_seed=fault_seed,
            fault_plan_name=fault_plan_name,
            envelope=EnvelopeSpec(min_completed=requests),
        ),
    )
