"""Tests for repro.serving.request: tenants, requests, and the
column-major arrival stream the serving loop reads -- checked against
the oracle's ``Request``-object merge."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ApplicationSpec, TaskClass
from repro.core.satisfaction import TimeRequirement
from repro.serving import Tenant, TenantLoad
from repro.serving.request import ArrivalColumns
from repro.workloads import (
    RequestTrace,
    bursty_trace,
    diurnal_trace,
    pareto_trace,
)
from tests.serving.event_loop import merge_loads


def _trace(arrivals, difficulty=None):
    arrivals = np.asarray(arrivals, dtype=float)
    if difficulty is None:
        difficulty = np.ones(len(arrivals))
    return RequestTrace(arrivals_s=arrivals, difficulty=np.asarray(difficulty))


class TestTenant:
    def test_from_spec_infers_requirement(self):
        spec = ApplicationSpec("age", TaskClass.INTERACTIVE)
        tenant = Tenant.from_spec(spec, priority=3)
        assert tenant.name == "age"
        assert tenant.priority == 3
        assert tenant.requirement.unusable_s == 3.0

    def test_background_tenant_has_no_deadline(self):
        spec = ApplicationSpec("tagging", TaskClass.BACKGROUND)
        tenant = Tenant.from_spec(spec)
        assert math.isinf(tenant.requirement.unusable_s)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Tenant("", TimeRequirement(0.1, 1.0))


class TestRequestDeadline:
    def test_deadline_is_arrival_plus_unusable(self):
        tenant = Tenant("t", TimeRequirement(0.1, 0.5))
        load = TenantLoad(tenant, _trace([2.0]))
        (request,) = merge_loads([load])
        assert request.deadline_s == pytest.approx(2.5)
        assert request.has_deadline

    def test_background_request_has_no_deadline(self):
        tenant = Tenant("bg", TimeRequirement(math.inf, math.inf))
        load = TenantLoad(tenant, _trace([0.0]))
        (request,) = merge_loads([load])
        assert not request.has_deadline


class TestMergeLoads:
    def test_interleaves_by_arrival_then_name(self):
        a = Tenant("alpha", TimeRequirement(0.1, 1.0))
        b = Tenant("beta", TimeRequirement(0.1, 1.0))
        merged = merge_loads(
            [
                TenantLoad(a, _trace([0.2, 0.4])),
                TenantLoad(b, _trace([0.1, 0.2])),
            ]
        )
        assert [r.tenant.name for r in merged] == [
            "beta", "alpha", "beta", "alpha",
        ]
        assert [r.rid for r in merged] == [0, 1, 2, 3]
        arrivals = [r.arrival_s for r in merged]
        assert arrivals == sorted(arrivals)

    def test_difficulty_travels_with_request(self):
        tenant = Tenant("t", TimeRequirement(0.1, 1.0))
        merged = merge_loads(
            [TenantLoad(tenant, _trace([0.0, 1.0], [1.0, 2.5]))]
        )
        assert merged[1].difficulty == pytest.approx(2.5)

    def test_rejects_duplicate_tenants(self):
        tenant = Tenant("dup", TimeRequirement(0.1, 1.0))
        with pytest.raises(ValueError, match="dup"):
            merge_loads(
                [
                    TenantLoad(tenant, _trace([0.0])),
                    TenantLoad(tenant, _trace([1.0])),
                ]
            )

    def test_empty_loads_merge_to_nothing(self):
        tenant = Tenant("t", TimeRequirement(0.1, 1.0))
        assert merge_loads([TenantLoad(tenant, _trace([]))]) == []


class TestFloat64RoundTrip:
    """The columnar loop's fingerprint contract leaves no room for one
    ULP of drift: every clock must survive the float64 columns."""

    @pytest.mark.parametrize(
        "trace",
        [
            bursty_trace(n_requests=200, rate_hz=317.0, seed=5),
            pareto_trace(n_requests=200, rate_hz=317.0, alpha=1.2, seed=5),
            diurnal_trace(
                n_requests=200, base_rate_hz=200.0, amplitude=0.7,
                period_s=0.9, seed=5,
            ),
        ],
        ids=["mmpp", "pareto", "diurnal"],
    )
    def test_workload_clocks_round_trip_exactly(self, trace):
        """Every generator's float64 arrival clock comes out of the
        columns as the bit-identical Python float."""
        tenant = Tenant("t", TimeRequirement(0.1, 1.0))
        columns = ArrivalColumns([TenantLoad(tenant, trace)])
        expected = [float(t) for t in trace.arrivals_s]
        assert columns.arrivals_list == expected
        assert [t.hex() for t in columns.arrivals_list] == [
            t.hex() for t in expected
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(
            st.floats(allow_nan=False, width=64),
            min_size=1, max_size=64,
        )
    )
    def test_ndarray_tolist_is_bit_identical(self, values):
        """The list mirrors ArrivalColumns keeps are exact:
        ``float64 -> Python float`` loses nothing, ever."""
        array = np.asarray(values, dtype=np.float64)
        assert [v.hex() for v in array.tolist()] == [
            float(v).hex() for v in values
        ]


def _loads():
    snappy = Tenant(
        "snappy", TimeRequirement(imperceptible_s=0.1, unusable_s=0.5),
        priority=1,
    )
    calm = Tenant(
        "calm", TimeRequirement(imperceptible_s=0.5, unusable_s=2.0),
        priority=0,
    )
    return [
        TenantLoad(snappy, bursty_trace(n_requests=120, rate_hz=300.0,
                                        seed=3)),
        TenantLoad(calm, pareto_trace(n_requests=90, rate_hz=250.0,
                                      alpha=1.4, seed=4)),
    ]


class TestArrivalColumns:
    def test_ordering_matches_merge_loads(self):
        loads = _loads()
        columns = ArrivalColumns(loads)
        reference = merge_loads(loads)
        assert columns.n == len(reference)
        difficulty = columns.difficulty.tolist()
        for rid, request in enumerate(reference):
            assert columns.arrivals_list[rid] == request.arrival_s
            assert difficulty[rid] == request.difficulty
            assert (
                columns.tenants[columns.tenant_index_list[rid]]
                is request.tenant
            )

    def test_deadlines_follow_tenant_requirement(self):
        columns = ArrivalColumns(_loads())
        deadlines = columns.deadlines.tolist()
        for rid in range(columns.n):
            tenant = columns.tenants[columns.tenant_index_list[rid]]
            assert deadlines[rid] == (
                columns.arrivals_list[rid] + tenant.requirement.unusable_s
            )
            assert columns.has_deadline_list[rid] == math.isfinite(
                deadlines[rid]
            )

    def test_duplicate_tenant_rejected(self):
        loads = _loads()
        dupe = loads + [loads[0]]
        with pytest.raises(ValueError, match="duplicate tenant"):
            ArrivalColumns(dupe)

    def test_empty_loads(self):
        columns = ArrivalColumns([])
        assert columns.n == 0
        assert columns.arrivals_list == []
        assert columns.deadlines.shape == (0,)
