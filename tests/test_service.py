"""End-to-end tests for the sweep service over an ephemeral port."""

import json
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.service import (
    API_VERSION,
    ApiError,
    ReproService,
    ServiceClient,
    ServiceError,
    parse_sweep_request,
    sweep_request,
)
from repro.sweep import (
    ResultCache,
    RunSpec,
    SweepEngine,
    shared_pool,
    shutdown_shared_pool,
)

SPECS = [
    RunSpec.for_run("water", protocol=p, scale=0.2, n_procs=4)
    for p in ("BASIC", "P")
]


@pytest.fixture()
def service(tmp_path):
    engine = SweepEngine(cache=ResultCache(tmp_path / "cache"))
    with ReproService(engine) as svc:
        yield svc


@pytest.fixture()
def client(service):
    return ServiceClient(service.url, timeout=120.0)


class TestSchema:
    def test_round_trip(self):
        body = sweep_request(SPECS)
        assert body["v"] == API_VERSION
        assert parse_sweep_request(body) == SPECS

    def test_unknown_api_version_rejected(self):
        body = sweep_request(SPECS)
        body["v"] = 99
        with pytest.raises(ApiError) as err:
            parse_sweep_request(body)
        assert err.value.status == 400

    def test_empty_specs_rejected(self):
        with pytest.raises(ApiError):
            parse_sweep_request({"v": API_VERSION, "specs": []})

    def test_stale_spec_payload_rejected(self):
        body = sweep_request(SPECS)
        body["specs"][0]["v"] = 999
        with pytest.raises(ApiError) as err:
            parse_sweep_request(body)
        assert err.value.status == 422
        assert "specs[0]" in err.value.message


class TestEndToEnd:
    def test_submit_poll_results(self, service, client):
        job = client.submit_and_wait(SPECS, timeout=120)
        assert job["state"] == "done"
        assert job["cells"] == job["done"] == len(SPECS)
        assert job["sources"]["sim"] == len(SPECS)
        for cell, spec in zip(job["results"], SPECS):
            assert cell["status"] == "done"
            assert RunSpec.from_wire(cell["spec"]) == spec
            summary = cell["summary"]
            assert summary["execution_time"] > 0
            assert summary["protocol"] == spec.protocol

    def test_repeat_sweep_served_from_cache(self, service, client):
        client.submit_and_wait(SPECS, timeout=120)
        sim_misses = service.engine.misses
        job = client.submit_and_wait(SPECS, timeout=120)
        assert job["sources"]["cache"] == len(SPECS)
        assert job["sources"]["sim"] == 0
        assert service.engine.misses == sim_misses, \
            "second identical sweep must not simulate anything"

    def test_run_by_hash(self, service, client):
        job = client.submit_and_wait(SPECS, timeout=120)
        key = job["results"][0]["key"]
        payload = client.run(key)
        assert payload["spec_key"] == key
        assert RunSpec.from_wire(payload["spec"]) == SPECS[0]

    def test_include_stats_embeds_full_payload(self, service, client):
        job = client.submit_and_wait(SPECS, timeout=120, include_stats=True)
        stats = job["results"][0]["summary"]["stats"]
        assert stats["execution_time"] > 0
        assert "version" in stats

    def test_health_and_cache_stats(self, service, client):
        client.submit_and_wait(SPECS, timeout=120)
        health = client.health()
        assert health["status"] == "ok"
        assert health["engine"]["cells"] == len(SPECS)
        stats = client.cache_stats()
        assert stats["cache"]["entries"] == len(SPECS)
        assert stats["v"] == API_VERSION

    def test_sweep_index_lists_jobs(self, service, client):
        sweep_id = client.submit(SPECS)
        client.wait_for(sweep_id, timeout=120)
        listing = client.sweeps()
        assert [s["sweep"] for s in listing["sweeps"]] == [sweep_id]


class TestErrors:
    def test_unknown_sweep_404(self, service, client):
        with pytest.raises(ServiceError) as err:
            client.sweep("sweep-999999")
        assert err.value.status == 404

    def test_unknown_run_404(self, service, client):
        with pytest.raises(ServiceError) as err:
            client.run("f" * 64)
        assert err.value.status == 404

    def test_bad_run_id_400(self, service, client):
        with pytest.raises(ServiceError) as err:
            client.run("not-a-hash")
        assert err.value.status == 400

    def test_malformed_body_400(self, service):
        req = urllib.request.Request(
            service.url + "/v1/sweeps",
            data=b"{nope",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400
        body = json.load(err.value)
        assert body["error"]["status"] == 400

    def test_version_mismatch_400(self, service, client):
        body = sweep_request(SPECS[:1])
        body["v"] = 2
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/v1/sweeps", body)
        assert err.value.status == 400

    def test_unknown_endpoint_404(self, service, client):
        with pytest.raises(ServiceError) as err:
            client._get("/v2/anything")
        assert err.value.status == 404


class TestPooledService:
    def test_request_threads_spawn_the_workers(self, tmp_path):
        """The service starts its pool from a request thread, with the
        HTTP server's thread alive, so it must never fork."""
        shutdown_shared_pool()
        engine = SweepEngine(executor="process", max_workers=2,
                             cache=ResultCache(tmp_path / "cache"))
        with ReproService(engine) as svc:
            client = ServiceClient(svc.url, timeout=120.0)
            job = client.submit_and_wait(SPECS, timeout=120)
            counters = shared_pool().counters()
        assert job["state"] == "done"
        assert job["sources"]["sim"] == len(SPECS)
        assert (counters["forked"], counters["spawned"]) == (0, len(SPECS))


class TestCrossClientDedup:
    def test_overlapping_sweeps_share_executions(self, tmp_path):
        """Two clients racing the same matrix simulate each cell once."""
        import threading
        import time

        from repro.sweep import engine as engine_mod

        calls = []
        lock = threading.Lock()
        real = engine_mod.execute_spec

        def counting(spec, warm=None):
            with lock:
                calls.append(spec.key())
            time.sleep(0.2)
            return real(spec, warm)

        engine = SweepEngine(cache=ResultCache(tmp_path / "cache"))
        with ReproService(engine) as svc, _patched(engine_mod, counting):
            client = ServiceClient(svc.url, timeout=120.0)
            ids = [client.submit(SPECS) for _ in range(2)]
            jobs = [client.wait_for(i, timeout=120) for i in ids]
        assert len(calls) == len(SPECS), \
            f"expected {len(SPECS)} executions, saw {len(calls)}"
        assert {j["state"] for j in jobs} == {"done"}
        ets = [
            [c["summary"]["execution_time"] for c in j["results"]]
            for j in jobs
        ]
        assert ets[0] == ets[1]


@contextmanager
def _patched(module, fn):
    real = module.execute_spec
    module.execute_spec = fn
    try:
        yield
    finally:
        module.execute_spec = real
