"""Observability derived from the run's ledger.

``Instrumentation.record_run`` rebuilds a run's spans and metrics
from its finished report.  These tests pin that derivation on a
scenario corpus -- report fingerprints, export digests and the span
closing order, all recorded from the former live-callback
instrumentation -- and check that an instrumented plain run takes the
columnar loop yet matches the event loop plus ``record_run`` byte for
byte, and that a failover escalating a ladder leaves its ``degrade``
event on the ledger.  Every scenario's span exports also match their
dict-built oracle, the digests hold under Python 3.12's compensated
``sum``, every derivation equals the replay it replaced
(``tests/obs/replay.py``), and a ``storm_traced``-sized derivation and
export builds no ``Span`` and no ``RouterEvent``.  Every scenario
builds its own fleet, so engine cache temperature (compile spans,
``engine_*`` metrics) is the same on every test run.
"""

import builtins
import hashlib
import json
from dataclasses import replace
from unittest import mock

import pytest

from repro.control import ControllerConfig
from repro.core import ApplicationSpec, TaskClass
from repro.core.fleet import FleetManager
from repro.core.satisfaction import TimeRequirement
from repro.faults import FaultTraceConfig, generate_fault_trace
from repro.faults.events import FaultEvent, FaultTrace
from repro.gpu import JETSON_TX1, K20C
from repro.nn import alexnet
from repro.obs import (
    Instrumentation,
    Span,
    chrome_trace_json,
    metrics_to_json,
    prometheus_text,
    trace_to_json,
)
from repro.serving import RequestRouter, RouterConfig, Tenant, TenantLoad
from repro.serving.events import RouterEvent
from repro.serving.shard import FleetCoordinator, FleetSpec
from repro.workloads import bursty_trace, pareto_trace
from tests.obs.oracle import assert_matches_oracle, oracle_chrome_trace_json
from tests.obs.replay import assert_matches_replay
from tests.serving.event_loop import run_events
from tests.py312_sum import sum312

_SPEC = ApplicationSpec(
    "interactive", TaskClass.INTERACTIVE, data_rate_hz=50.0,
    entropy_slack=0.30,
)
_SNAPPY = Tenant(
    "snappy", TimeRequirement(imperceptible_s=0.1, unusable_s=0.5),
    priority=1,
)
#: Deadline tight enough that overload forces admission escalations
#: and ``infeasible`` rejections.
_TIGHT = Tenant(
    "tight", TimeRequirement(imperceptible_s=0.1, unusable_s=0.25),
    priority=1,
)
_BACKGROUND = Tenant.from_spec(
    ApplicationSpec("tagging", TaskClass.BACKGROUND), priority=0
)


def _fleet():
    manager = FleetManager(
        alexnet(), _SPEC, architectures=[K20C, JETSON_TX1]
    )
    manager.deploy_all()
    return manager


def _loads(fleet, n_requests=300, seed=42, load=2.0, tenant=_SNAPPY):
    trace = bursty_trace(
        n_requests=n_requests,
        rate_hz=load * fleet.capacity_rps(),
        burst_factor=6.0,
        burst_fraction=0.3,
        seed=seed,
    )
    return [TenantLoad(tenant, trace)]


def _chaos(fleet, loads, seed=7, transients=3):
    """One episode of each structural fault over a quarter of the
    horizon, plus transients (the ``serve-fleet --chaos`` recipe)."""
    horizon = float(loads[0].trace.arrivals_s[-1])
    quarter = 0.25 * horizon
    config = FaultTraceConfig(
        outages=1,
        outage_duration_s=quarter,
        sm_failures=1,
        sm_failure_duration_s=quarter,
        throttles=1,
        throttle_duration_s=quarter,
        bandwidth_degradations=1,
        bandwidth_duration_s=quarter,
        transients=transients,
    )
    return generate_fault_trace(
        sorted(fleet.deploy_all()), horizon, config, seed=seed
    )


def _overlapping_outages(loads):
    """TX1 goes down twice before it comes back (the second outage
    re-opens its fault episode); K20c has one outage of its own and a
    throttle that never ends (its episode is open at drain)."""
    horizon = float(loads[0].trace.arrivals_s[-1])
    return FaultTrace([
        FaultEvent(0.2 * horizon, "outage", "TX1", episode=0),
        FaultEvent(0.3 * horizon, "outage", "TX1", episode=1),
        FaultEvent(0.5 * horizon, "restore", "TX1", episode=1),
        FaultEvent(0.4 * horizon, "outage", "K20c", episode=2),
        FaultEvent(0.45 * horizon, "restore", "K20c", episode=2),
        FaultEvent(0.6 * horizon, "transient", "K20c"),
        FaultEvent(
            0.7 * horizon, "throttle", "K20c", relative_frequency=0.6,
            episode=3,
        ),
    ])


def _routed(config=None, faults=None, controller=None, shard=None,
            n_requests=300, seed=42, tenants=1, repeat=1, load=2.0,
            tenant=_SNAPPY):
    """A scenario: route one storm on a fresh fleet; ``repeat`` > 1
    re-runs it on the now-warm fleet and keeps the last run."""

    def scenario():
        fleet = _fleet()
        loads = _loads(fleet, n_requests, seed, load, tenant)
        if tenants == 2:
            background = pareto_trace(
                n_requests=n_requests // 3,
                rate_hz=0.5 * fleet.capacity_rps(),
                seed=seed + 1,
            )
            loads.append(TenantLoad(_BACKGROUND, background))
        chaos = faults(fleet, loads) if faults is not None else None
        for _ in range(repeat):
            obs = Instrumentation(shard=shard)
            plane = controller.build() if controller is not None else None
            report = RequestRouter(fleet, config or RouterConfig()).run(
                loads, faults=chaos, obs=obs, controller=plane
            )
        return report, obs

    return scenario


def _sharded(controller=None):
    def scenario():
        fleet_spec = FleetSpec(
            network="alexnet", spec=_SPEC, gpus=("k20c", "tx1")
        )
        (snappy,) = _loads(_fleet(), 300, 5)
        snappy_2 = TenantLoad(
            Tenant(
                "snappy-2",
                TimeRequirement(imperceptible_s=0.1, unusable_s=0.5),
                priority=1,
            ),
            snappy.trace,
        )
        # The placement the GOLDENS digests were recorded with.
        outcome = FleetCoordinator(
            fleet_spec, RouterConfig(), n_shards=2, seed=42, inline=True,
            controller=controller,
        ).run(shard_loads=[[snappy_2], [snappy]], instrument=True)
        return outcome

    return scenario


SCENARIOS = {
    "plain": _routed(),
    "plain_shard": _routed(shard="s0"),
    "plain_two_tenants": _routed(tenants=2),
    "plain_warm": _routed(repeat=2),
    "plain_overload": _routed(n_requests=400, load=8.0, tenant=_TIGHT),
    "plain_saturated": _routed(n_requests=400, load=8.0),
    "chaos": _routed(faults=_chaos),
    "chaos_warm": _routed(faults=_chaos, repeat=2),
    "chaos_health_blind": _routed(
        RouterConfig(resilience=False), faults=_chaos
    ),
    "chaos_fifo_flat": _routed(
        RouterConfig(degradation=False, policy="fifo"), faults=_chaos
    ),
    "chaos_two_tenants": _routed(faults=_chaos, tenants=2),
    "chaos_overload": _routed(
        faults=_chaos, n_requests=400, load=8.0, tenant=_TIGHT
    ),
    "breaker_1": _routed(
        RouterConfig(breaker_threshold=1),
        faults=lambda fleet, loads: _chaos(fleet, loads, transients=8),
    ),
    "breaker_2": _routed(
        RouterConfig(breaker_threshold=2, breaker_cooldown_s=0.05),
        faults=lambda fleet, loads: _chaos(fleet, loads, transients=8),
    ),
    "overlapping_outages": _routed(
        faults=lambda fleet, loads: _overlapping_outages(loads)
    ),
    "overlapping_outages_health_blind": _routed(
        RouterConfig(resilience=False),
        faults=lambda fleet, loads: _overlapping_outages(loads),
    ),
    "ewma_shard": _routed(
        controller=ControllerConfig(kind="ewma", tick_s=0.05), shard="s1"
    ),
    "holt_winters": _routed(
        controller=ControllerConfig(
            kind="holt-winters", tick_s=0.05, season_ticks=4
        ),
        load=3.0,
    ),
    "ewma_chaos": _routed(
        controller=ControllerConfig(kind="ewma", tick_s=0.1),
        faults=_chaos,
    ),
    "holt_winters_chaos_shard": _routed(
        controller=ControllerConfig(kind="holt-winters", tick_s=0.1),
        faults=_chaos,
        shard="s1",
    ),
}

SHARDED_SCENARIOS = {
    "two_shards": _sharded(),
    "two_shards_ewma": _sharded(ControllerConfig(kind="ewma")),
}


def _sha1(text):
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def replayed(scenario):
    """Run ``scenario``, then hold every ``record_run`` it made to the
    replay that derivation replaced (``tests/obs/replay.py``): the same
    buffer rows, closing order, metrics JSON and Prometheus text."""
    calls = []
    record_run = Instrumentation.record_run

    def spy(obs, report, **kwargs):
        record_run(obs, report, **kwargs)
        calls.append((obs, report, kwargs))

    with mock.patch.object(Instrumentation, "record_run", spy):
        result = scenario()
    assert calls
    for obs, report, kwargs in calls:
        assert_matches_replay(obs, report, **kwargs)
    return result


def routed_digests(name):
    report, obs = replayed(SCENARIOS[name])
    assert_matches_oracle(obs.buffer)
    return {
        "fingerprint": report.fingerprint(),
        "report": _sha1(report.to_json(include_requests=True)),
        "trace": _sha1(trace_to_json(obs.buffer)),
        "chrome": _sha1(chrome_trace_json(obs.buffer)),
        "metrics": _sha1(metrics_to_json(obs.metrics)),
        "prometheus": _sha1(prometheus_text(obs.metrics)),
        "closing_order": _sha1(
            ",".join(str(span.span_id) for span in obs.buffer)
        ),
    }


def sharded_digests(name):
    outcome = replayed(SHARDED_SCENARIOS[name])
    assert outcome.buffer.counts["supervise"] == 2
    assert_matches_oracle(outcome.buffer)
    return {
        "fingerprint": outcome.report.fingerprint(),
        "obs": _sha1(json.dumps(outcome.report.obs, sort_keys=True)),
        "trace": _sha1(trace_to_json(outcome.buffer)),
        "chrome": _sha1(chrome_trace_json(outcome.buffer)),
    }


#: Digests of every scenario, recorded from the live-callback
#: instrumentation the derivation replaced.
GOLDENS = {
    "breaker_1": {
        "chrome": "fd10808d4038b3cf37c2fd9243d54b67a7527896",
        "closing_order": "2d086b9df93eed53ba74df4d101fb0010c4b3069",
        "fingerprint": "9125499a266156f170e44d7891ef8cdb71b8ac8e",
        "metrics": "f8af0a9ec9d5a9153f7ab2d966bb813f6d8b7448",
        "prometheus": "00a9d97b6a60b76f874b64890c9c0bd7fef13451",
        "report": "f3e39dc5a09363bd8f7d3f5f25a435130b1cf21b",
        "trace": "79d2cd388a716b500de0640ca1c630d89d181af1",
    },
    "breaker_2": {
        "chrome": "c77ce36a150a904b02885532773ee8d4727554d0",
        "closing_order": "7817a98d875bae3e5aebd5666c8605f1af019891",
        "fingerprint": "6d48d519cccec48f6ecab5c83ea17a8208e3b078",
        "metrics": "d68942d32ce7ed84e9d8e244dbfb265619aa7632",
        "prometheus": "7773fa4ef7e5cb513a034c9a4f71ac481640652d",
        "report": "95c7b0142ba638fd86adc9c3e40296c848676216",
        "trace": "15d2e28430af579e67c6e75960a3917e313fe55a",
    },
    "chaos": {
        "chrome": "e3bfd1a564dc6067e082683b57bf64f98e8efcfa",
        "closing_order": "6050f3f155a49fc9c0f6abfb389cfdeedfa7d3f8",
        "fingerprint": "8cccf3ce5075b8691de7952b7fcebb09335302e7",
        "metrics": "32b0bae6bbb97e0be931f1954138ee06c8ef36b2",
        "prometheus": "1243c8e88122d111ee0a26e4772b1b8dceeb6d26",
        "report": "d2d32be7ba8f05d9e9b6ec09908fddbc3fb6ccfb",
        "trace": "889994426f3ca076234021f5c8fb882e1575f9e4",
    },
    "chaos_fifo_flat": {
        "chrome": "8de24558e1b51a198846621acb1519e720d837d6",
        "closing_order": "b8eadd12938d074af74993362ce992c6b61370b6",
        "fingerprint": "8cbd6286b20677932d7a9af6fcca43e2bb60e8a3",
        "metrics": "31f1fbdf1bfd2af41804ec50cb6b2d7ff1fd6bdd",
        "prometheus": "a84bda59cba3a669473c9e56d74518c104bebce0",
        "report": "59071e44894aae7d68469efcc133cd55789996d7",
        "trace": "2846fbc189ed1925cee7b80546f4cc10b38901a8",
    },
    "chaos_health_blind": {
        "chrome": "3553681715c0f90d235baa1f9b62284aa3bcb47a",
        "closing_order": "a46404b3eed63f1cfcbd60e3d750b749f8cade8e",
        "fingerprint": "4d776d59cee567e012a64ae721e7acf22aa8b4b6",
        "metrics": "576e9621202228579b065c93e104b5a1cd1f688c",
        "prometheus": "51cdcdbfaa0e7924ab5cecb66b839c5d72c57e05",
        "report": "cf6cca0a2b33d9a993c4d4576b3156bdc778620d",
        "trace": "c7c1d9c21610408d38c9b023641cd6de72f38534",
    },
    "chaos_overload": {
        "chrome": "40d5ec7b0643431a4bee93a187caa8ba793929d0",
        "closing_order": "48624154562747908cd9b9507a37e952df40a07e",
        "fingerprint": "f2773f88b5d786cc0d4ae53c34508f2916254be5",
        "metrics": "0d315414ddb10792ceff2994600ae92d118f275a",
        "prometheus": "931c949f91bf8d60740d6388a2a41233999fc1fc",
        "report": "cc10877b8d8cd0fca96b06f719ba04caabe46266",
        "trace": "25c63624212783a15a0cc902a87608bb8bd620fc",
    },
    "chaos_two_tenants": {
        "chrome": "169af58010d76322e8a76376caffd51dcbdf0977",
        "closing_order": "e2b309a74427ea356984dc45a8b6fd48bd3d9688",
        "fingerprint": "965e0f8c7bbb863e0431eb4bf6cfd69ed2bfe682",
        "metrics": "35a567fd2e2a28f50614f3ec390d15aa8b2038ae",
        "prometheus": "19b253571a7da2fdb7d95075f43819c19369ba0b",
        "report": "152a2412c49aceb2b086dbba4c89fd6b70d5d4ef",
        "trace": "801511e081db1ca9b65c548db79e0538be785d48",
    },
    "chaos_warm": {
        "chrome": "0eaf12d47711e6fe338966b158a64b946f394b60",
        "closing_order": "71b60b1a6d008de53a141982d728987b2f09246f",
        "fingerprint": "8cccf3ce5075b8691de7952b7fcebb09335302e7",
        "metrics": "9f93b8f642ea2e797a6e38e8ab6737bae61dffa9",
        "prometheus": "a8e42c66911c238d26c90776b934614be52a3a6c",
        "report": "d177494165fc662fc2ef2886e784bf54ac87d8af",
        "trace": "2383ecaae2cbceece40bdc240d0a3795ed5c40fa",
    },
    "ewma_chaos": {
        "chrome": "4ce4ff87dbac845511d85ebd4f252ccf87baef74",
        "closing_order": "7e7fed6cbb93dcb34c09d44a24d73c419eaeab45",
        "fingerprint": "b7b86c1bfa3a81aab775e7d3a7f765b36eac9812",
        "metrics": "ae7795e3d60d687f8a7d930ca0fc16d2f305064d",
        "prometheus": "fc6a83e7c266cfd4bc22ace5f74f536ff89f4c17",
        "report": "b7a0c7314bef2a9a32fd7ac929430947b1090e18",
        "trace": "a94df0158825512bf555f7180f1d7f845134f57b",
    },
    "ewma_shard": {
        "chrome": "6b0ebef585b1ae817b9e95c0577ed13002f3b0b5",
        "closing_order": "6c21040288697be0d794224bd41e8e6f83f8f8fa",
        "fingerprint": "752b941efe29bf6e1a93164961d34a694549bee6",
        "metrics": "779ff581c71ef98731d1de1d0592fbeec3abfa98",
        "prometheus": "2afa1260758802fd8dd4ca2ab7421ac837e110e9",
        "report": "ddd76151b181d6b3b160daee26ac2c12a2433e84",
        "trace": "ceead8dabd1f8b97f90bc6c2556c85d5dcb5019b",
    },
    "holt_winters": {
        "chrome": "ca519dc099bf5b7b100fee1c5e3d9953d2cb3720",
        "closing_order": "719afc81efb478d8285668bec427391cd282a3ca",
        "fingerprint": "eaf9a28b18c141d080694456cceffa0e6a96d67e",
        "metrics": "a35539310431bd18c196b8532c12358e8b000a96",
        "prometheus": "391bd52b8873782a8e112433b28cdabb8a26fd19",
        "report": "499078f81656de193d6dfc2deb2c57b6c298af2d",
        "trace": "ab0dc04b448de5059c1d6771ee4d02d41fec7c88",
    },
    "holt_winters_chaos_shard": {
        "chrome": "6198b4b9052c8103440935eb0697559d7e84cdc5",
        "closing_order": "7e7fed6cbb93dcb34c09d44a24d73c419eaeab45",
        "fingerprint": "c7b0f78cf4281ff87a6055c73f25758d2b824aca",
        "metrics": "5354e32032f5b3126303d8c4a8d9cf23fb59f4aa",
        "prometheus": "7fdde90b9004e66367978598657e52897bd71225",
        "report": "a7df4a0f4524c8089a159aedc4d267990814a639",
        "trace": "ba59a158da931dc145e9819946925e9349247b90",
    },
    "overlapping_outages": {
        "chrome": "f2ca4025d17097854c404a7f146f338792b8903f",
        "closing_order": "5145b3511790bfb7cb58bfa611003d7fa687a244",
        "fingerprint": "b0020791fe6be8d764d131f56ef111883654f61f",
        "metrics": "cff341888a845f2e9824787201759344bf036e18",
        "prometheus": "d8044b9915aaef2d128b70d56dc19898defd0539",
        "report": "730518d067638323c1b624f6df8f9b61e6e2b003",
        "trace": "ca33b3c0545cd019c6a454b26ec3fcb32025468b",
    },
    "overlapping_outages_health_blind": {
        "chrome": "1930cd206b1363ec9099e3ace6b5fd35399baffc",
        "closing_order": "29e8dde795ff7d32abb48664104e72c5a7555166",
        "fingerprint": "3d5c940f9bae783e07e5b149b2bc255bb9a4ad93",
        "metrics": "24a18ecc1327552347bee86149134054b191a35c",
        "prometheus": "9882a60b65e5dcfc349ee0f8e53c822a51b55fdf",
        "report": "08520d0677f313ea4713ff6c52be0a1fa434b7dd",
        "trace": "da5bebd7ed6ba2935b5dcdbc70faef0a5f5f3522",
    },
    "plain": {
        "chrome": "094eebfe519c9847be93dd2db2a80caec3602e19",
        "closing_order": "af05340c738c5abdfa82c3fbd4ab7be65ba078b1",
        "fingerprint": "cf6fb5f3a236287fd70affe90e2bc2ecf5c900b3",
        "metrics": "0ce86fa8e17741f808e1a7d6529eafdf04fca8fd",
        "prometheus": "91938a8648a856d04d985faec6c4b98a636b0c0c",
        "report": "1369fa420f4985c66619365667ce1614b7ff2450",
        "trace": "828025c268b239a7407319ec74eb9cb77950e1e4",
    },
    "plain_overload": {
        "chrome": "3a27ac1dbd926b016bbad85d0b2cccbbf5fb5fcb",
        "closing_order": "f3f0b9cc4e8189e8d006edc70b8d72890ce3fa9c",
        "fingerprint": "9e07924ecca78b8bac130847ca157ae7cf4c160b",
        "metrics": "c110bbffd8d6c3fa0152236f2a6df7720033515b",
        "prometheus": "33a11f3784ca492ff2757bee36b49ec4c3d013d3",
        "report": "42c88a2d618e41269a73b48419a72088e610c5c0",
        "trace": "5f8603f3edeb829b03980966fd9bb1df365b57d7",
    },
    "plain_saturated": {
        "chrome": "db54ef1da3aa9bd05547d33be28dbd3cc21fe708",
        "closing_order": "e0eb9a73e2ffd9bf36b61638b9c47fe35a8dee8c",
        "fingerprint": "0a7e7faeb304676f4cd27404f4e97d63c3390b90",
        "metrics": "da0b5965d7c9fc1ad02f3ba54cd4fd46df53aa82",
        "prometheus": "0a0a321acee04401f249b45443201f3209ed1d9c",
        "report": "99e75d0ac4c10d43d0775d9ce5f8f2c0ee4d828e",
        "trace": "02790ddedacd54ab2d6b13c09e61b9705895e93e",
    },
    "plain_shard": {
        "chrome": "baba78bebb7e66606a6195cd17d79b87d8677fca",
        "closing_order": "af05340c738c5abdfa82c3fbd4ab7be65ba078b1",
        "fingerprint": "2942c69b0ccdfd0b948592551418fd95887629f2",
        "metrics": "63a8c2fedb5a7d55ed36a9c0f7d50753113c0632",
        "prometheus": "64e46742c6ce93639b1a37bbe5c2d239a1819e3e",
        "report": "a4769e9010dcb3e9ed17233b737b4d261050e84f",
        "trace": "5524f20500638612e475a8745405429cd1512c59",
    },
    "plain_two_tenants": {
        "chrome": "79d05afb4da649e283e83df9d95a63f432e1ee3c",
        "closing_order": "6faef20b7e4b624741662b02fd347a24ab55e7c9",
        "fingerprint": "c88bba59468aabba696f8266fc3591b16e653dab",
        "metrics": "4adb28489305adfd98f152def12e21ba414153ce",
        "prometheus": "5d368a24ad66b4aae41f691fcefd90f41736a049",
        "report": "52bf70bba275918044a6f9a95db237acabbf4e30",
        "trace": "bb1e04682d8a3a07533fdd4f67704d74c889381d",
    },
    "plain_warm": {
        "chrome": "9cd3b6fdbad8cb1cbeca4106fc203139a931ede0",
        "closing_order": "d6669f8134a2bbb217069bd83e085e9ef4c2a5ee",
        "fingerprint": "cf6fb5f3a236287fd70affe90e2bc2ecf5c900b3",
        "metrics": "8c4d456187004cdb1de5964e5ab8d56056e1313f",
        "prometheus": "40a426c19b121d9d25138f54c944905c2ee628ad",
        "report": "06a6a2862ae9f2691bdafdd5f42ccd7fdba3673d",
        "trace": "d82693be0e1ec281c4aaee8b63c5c72f088c35d1",
    },
    "two_shards": {
        "chrome": "b267cd6f2aac9692c0d0fb2c62dda8d339ad7efc",
        "fingerprint": "52e578cde950cfd7919179298b2b6b57367bce38",
        "obs": "a6f6bb88ff60af21079e5507d606c9e8042aed84",
        "trace": "3468bf6365b200d52d7b13ad33fe0d7b51ef43a6",
    },
    "two_shards_ewma": {
        "chrome": "d5887939a1e2ef7fcdd5871e8d072b79ac0be28b",
        "fingerprint": "d75804e444fbd62c03739cc35e722c76f33a3d81",
        "obs": "26d33903c5f839d2b4621a8a5e0c766f9419b785",
        "trace": "6295ea5c6f6ea0e7f5f95688fabc0313f682eaa8",
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_routed_scenario_matches_golden(name):
    assert routed_digests(name) == GOLDENS[name]


@pytest.mark.parametrize("name", sorted(SHARDED_SCENARIOS))
def test_sharded_scenario_matches_golden(name):
    assert sharded_digests(name) == GOLDENS[name]


@pytest.mark.parametrize("name", ["chaos", "ewma_shard"])
def test_goldens_hold_under_python312_sum(name, monkeypatch):
    """Python 3.12's builtin ``sum`` compensates float rounding; with it
    swapped in, every digest is still the pinned one."""
    monkeypatch.setattr(builtins, "sum", sum312)
    assert routed_digests(name) == GOLDENS[name]


class TestNoPerSpanObjects:
    def test_traced_storm_builds_no_span(self, monkeypatch):
        """A chaos run at ``storm_traced``'s size (5,000 interactive
        plus 1,250 background requests): routing, ``record_run``,
        ``report_section`` and the Chrome and metrics exports construct
        no ``Span`` and no ``RouterEvent``, and the Chrome export still
        matches the oracle."""
        fleet = _fleet()
        loads = _loads(fleet, 5000, 42, 2.0)
        loads.append(TenantLoad(_BACKGROUND, pareto_trace(
            n_requests=1250, rate_hz=0.5 * fleet.capacity_rps(), seed=43,
        )))
        faults = _chaos(fleet, loads)
        built = []
        for cls in (Span, RouterEvent):
            def counting(self, *args, _original=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        obs = Instrumentation()
        report = RequestRouter(fleet, RouterConfig()).run(
            loads, faults=faults, obs=obs
        )
        chrome = chrome_trace_json(obs.buffer)
        metrics_to_json(obs.metrics)
        assert built == []
        assert report.obs["n_spans"] > 10_000
        monkeypatch.undo()
        assert chrome == oracle_chrome_trace_json(obs.buffer)


class TestColumnarDerivation:
    def test_instrumented_plain_run_matches_event_loop(self):
        """An instrumented plain run takes the columnar loop, and its
        derived obs is byte for byte what the event loop's report
        derives (both on a fresh fleet, so cache temperature agrees)."""
        fleet = _fleet()
        loads = _loads(fleet, 400, 42, 8.0, _TIGHT)
        traced = Instrumentation()
        columnar = RequestRouter(fleet).run(loads, obs=traced)

        fleet = _fleet()
        loads = _loads(fleet, 400, 42, 8.0, _TIGHT)
        router = RequestRouter(fleet)
        before = router._engine_activity()
        events = run_events(router, loads)
        after = router._engine_activity()
        oracle = Instrumentation()
        oracle.record_run(
            events,
            engine_counts={key: after[key] - before[key] for key in after},
        )
        events = replace(events, obs=oracle.report_section())

        assert columnar.to_json(include_requests=True) == events.to_json(
            include_requests=True
        )
        for export in (trace_to_json, chrome_trace_json):
            assert export(traced.buffer) == export(oracle.buffer)
        for export in (metrics_to_json, prometheus_text):
            assert export(traced.metrics) == export(oracle.metrics)
        assert [span.span_id for span in traced.buffer] == [
            span.span_id for span in oracle.buffer
        ]


#: The failover-escalation storm's fingerprint (obs section included)
#: once the escalation is on the ledger.
FAILOVER_ESCALATION_FINGERPRINT = "842ee4c08bbdf020d3682ac92e3470c059bba4a9"


class TestFailoverEscalation:
    """A failover admitted ``ok-degraded`` escalates its target's
    ladder; the ledger must say so, or every later dispatch on that
    platform runs at a level no ``degrade``/``restore`` event set."""

    def _storm(self):
        fleet = _fleet()
        trace = bursty_trace(
            n_requests=600, rate_hz=4.0 * fleet.capacity_rps(), seed=12
        )
        horizon = float(trace.arrivals_s[-1])
        faults = generate_fault_trace(
            sorted(fleet.deploy_all()),
            horizon,
            FaultTraceConfig(
                outages=2, outage_duration_s=0.2 * horizon, transients=2
            ),
            seed=12,
        )
        obs = Instrumentation()
        report = RequestRouter(fleet, RouterConfig()).run(
            [TenantLoad(_SNAPPY, trace)], faults=faults, obs=obs
        )
        return report, obs

    def test_dispatch_levels_replay_from_the_ledger(self):
        report, obs = self._storm()
        events = list(report.events)
        escalations = [
            index for index, event in enumerate(events)
            if event.kind == "degrade" and event.detail["cause"] == "failover"
        ]
        assert escalations
        for index in escalations:
            escalation, failover = events[index], events[index + 1]
            assert failover.kind == "failover"
            assert failover.request_ids == escalation.request_ids
            assert failover.platform == escalation.platform
        level = {}
        for event in events:
            if event.kind in ("degrade", "restore"):
                level[event.platform] = event.detail["level"]
            elif event.kind == "dispatch":
                assert event.detail["level"] == level.get(event.platform, 0)
        moves = sum(
            instrument.value
            for name, _labels, instrument in obs.metrics.series()
            if name == "degradation_moves_total"
        )
        counts = report.ledger.event_counts()
        assert moves == counts["degrade"] + counts["restore"]
        assert report.fingerprint() == FAILOVER_ESCALATION_FINGERPRINT
