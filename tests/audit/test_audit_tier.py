"""The full ``@audit`` tier: every registered workload x every
registered stack, replayed under a per-run invariant audit and the
differential oracle.

Minutes of work — opt in with ``--run-audit`` or ``REPRO_AUDIT=1`` (the
nightly audit workflow does). Tier-1 collects and skips these.
"""

import dataclasses

import pytest

from repro.audit import Auditor
from repro.harness.system import SimulatedSystem
from repro.obs.instruments import Instruments
from repro.stacks import stack_names
from repro.workloads.registry import all_workloads

NUM_ALLOCS = 800  # enough churn to exercise eviction/reclaim paths

ALL_SPECS = [spec.resolved() for spec in all_workloads()]
IDS = [spec.name for spec in ALL_SPECS]
ALL_STACKS = list(stack_names())


def sized(spec):
    return dataclasses.replace(spec, num_allocs=NUM_ALLOCS)


@pytest.mark.audit
@pytest.mark.parametrize("stack", ALL_STACKS)
@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_per_run_audit_clean(spec, stack):
    auditor = Auditor(epoch="interval", every=64)
    result = SimulatedSystem(
        sized(spec), stack, instruments=Instruments(audit=auditor)
    ).run()
    assert result.audit is not None and result.audit["checks"] > 0
    assert auditor.violations == [], [str(v) for v in auditor.violations]


@pytest.mark.audit
@pytest.mark.parametrize("stack", ALL_STACKS)
@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_differential_oracle_clean(spec, stack):
    from repro.audit.oracle import run_diff

    report = run_diff(sized(spec), stack, num_allocs=NUM_ALLOCS)
    assert report.divergence is None, str(report.divergence)
    assert report.soundness == []
    assert [str(v) for v in report.invariant_findings] == []
    assert report.columnar_mismatches == []
