"""The resilient remote artifact store: server, client, chaos.

Covers the remote tentpole end to end: the HTTP shard protocol
(GET/PUT/HEAD, ETag/SHA-256 integrity headers, 404/400 rejection),
fetch-on-miss populating the local store of record, push-on-write,
the verification/retry/circuit-breaker resilience stack under the
``net:*`` chaos sites — and the acceptance property that a 4-worker
suite run against a chaos-injected (or dead) server stays
byte-identical to an undisturbed local run.
"""

from __future__ import annotations

import urllib.error
import urllib.request

import pytest

from repro.experiments.fig4 import format_fig4, row_of
from repro.experiments.runner import fresh_results, run_suite
from repro.pipeline import PipelineStats
from repro.pipeline.resilience import RetryPolicy
from repro.pwcet import EstimatorConfig
from repro.remote import RemoteStoreClient, ShardServer
from repro.remote import client as client_module
from repro.remote.client import _Breaker
from repro.solve.store import (REMOTE_ENV, SCHEMA_VERSION, SolveStore,
                               encode_shard_line, parse_shard_line)
from repro.testing import faultinject
from repro.testing.faultinject import PLAN_ENV, STATE_ENV

KEY = "ab" * 32  # a well-formed (64-hex-char) content address
#: The solve store's schema directory (the served path segment).
SOLVE_DIR = f"v{SCHEMA_VERSION}"
FAST = RetryPolicy(max_attempts=3, backoff_base=0.01, backoff_cap=0.02,
                   sleep=lambda seconds: None)


@pytest.fixture(autouse=True)
def _clean_remote(monkeypatch):
    """Each test gets a fresh chaos harness and client registry."""
    monkeypatch.delenv(PLAN_ENV, raising=False)
    monkeypatch.delenv(STATE_ENV, raising=False)
    monkeypatch.delenv(REMOTE_ENV, raising=False)
    faultinject._PLAN_MEMO = None
    faultinject._LOCAL_COUNTS.clear()
    client_module._CLIENTS.clear()
    yield
    faultinject._PLAN_MEMO = None
    faultinject._LOCAL_COUNTS.clear()
    client_module._CLIENTS.clear()


@pytest.fixture()
def server(tmp_path):
    """A shard server over a fresh cache root, on an ephemeral port."""
    with ShardServer(str(tmp_path / "serverroot")).start() as running:
        yield running


def http(method: str, url: str, body: bytes | None = None):
    request = urllib.request.Request(url, data=body, method=method)
    return urllib.request.urlopen(request, timeout=5.0)


class TestServerProtocol:
    def test_put_get_head_round_trip_with_integrity_headers(
            self, server):
        line = encode_shard_line("solve", KEY, 42).encode("utf-8")
        url = f"{server.url}/stores/{SOLVE_DIR}/solve/{KEY}"
        with http("PUT", url, line) as response:
            assert response.status == 204
        with http("GET", url) as response:
            body = response.read()
            assert body == line
            checksum = parse_shard_line(body.decode())
            assert checksum == ("solve", KEY, 42)
            import hashlib
            import json
            assert response.headers["ETag"] == \
                f'"{json.loads(body)["c"]}"'
            assert response.headers["X-Repro-SHA256"] == \
                hashlib.sha256(body).hexdigest()
        with http("HEAD", url) as response:
            assert response.status == 200
            assert response.read() == b""  # headers only
        # The PUT landed in the real shard substrate: a plain local
        # store over the served root sees the entry.
        assert SolveStore(server.root).get(KEY) == 42

    def test_unknown_address_and_malformed_paths_404(self, server):
        for path in (f"/stores/{SOLVE_DIR}/solve/{KEY}",      # unknown address
                     f"/stores/espionage/solve/{KEY}",  # bad schema dir
                     f"/stores/{SOLVE_DIR}/solve/not-hex",    # bad key
                     f"/stores/{SOLVE_DIR}/solve/{KEY}/extra",
                     "/anything/else"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http("GET", server.url + path)
            assert excinfo.value.code == 404
            excinfo.value.close()

    def test_put_rejects_bodies_that_fail_the_shard_check(self, server):
        url = f"{server.url}/stores/{SOLVE_DIR}/solve/{KEY}"
        mismatched = encode_shard_line("solve", KEY[::-1], 7)
        corrupt = encode_shard_line("solve", KEY, 7).replace('"v":7',
                                                             '"v":8')
        assert corrupt != encode_shard_line("solve", KEY, 7)
        for body in (b"not json at all", mismatched.encode(),
                     corrupt.encode()):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http("PUT", url, body)
            assert excinfo.value.code == 400
            excinfo.value.close()
        # Nothing was stored by any of the rejected bodies.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http("GET", url)
        assert excinfo.value.code == 404
        excinfo.value.close()

    def test_healthz_probe(self, server):
        with http("GET", f"{server.url}/healthz") as response:
            assert response.status == 200


class TestFetchOnMiss:
    def test_local_miss_is_served_remotely_and_persisted_locally(
            self, server, tmp_path, monkeypatch):
        SolveStore(server.root).put(KEY, 1234)
        monkeypatch.setenv(REMOTE_ENV, server.url)
        local_root = tmp_path / "localroot"
        store = SolveStore.resolve(str(local_root))
        assert store.remote is not None
        assert store.get(KEY) == 1234
        assert store.remote.stats.fetch_hits == 1
        # The fetched entry was appended to the local store of record:
        # a *detached* handle over the same root serves it without any
        # remote at all.
        monkeypatch.setenv(REMOTE_ENV, "off")
        detached = SolveStore(local_root)
        assert detached.remote is None
        assert detached.get(KEY) == 1234

    def test_confirmed_miss_is_memoised_not_reasked(
            self, server, tmp_path, monkeypatch):
        monkeypatch.setenv(REMOTE_ENV, server.url)
        store = SolveStore.resolve(str(tmp_path / "localroot"))
        assert store.get(KEY) is None
        assert store.get(KEY) is None
        stats = store.remote.stats
        assert stats.fetch_misses == 1  # one wire request, not two
        assert stats.coalesced_hits == 1


class TestPushOnWrite:
    def test_local_write_becomes_visible_server_side(
            self, server, tmp_path, monkeypatch):
        monkeypatch.setenv(REMOTE_ENV, server.url)
        store = SolveStore.resolve(str(tmp_path / "localroot"))
        store.put(KEY, 77)
        assert store.remote.stats.pushes == 1
        with http("GET", f"{server.url}/stores/{SOLVE_DIR}/solve/{KEY}") \
                as response:
            assert parse_shard_line(response.read().decode()) \
                == ("solve", KEY, 77)

    def test_push_failure_is_non_fatal(self, tmp_path, monkeypatch):
        monkeypatch.setenv(REMOTE_ENV, "http://127.0.0.1:9")
        monkeypatch.setenv(client_module.TIMEOUT_ENV, "0.2")
        store = SolveStore.resolve(str(tmp_path / "localroot"))
        store.put(KEY, 99)  # must not raise
        assert store.remote.stats.push_failures == 1
        assert store.get(KEY) == 99  # the local write is intact


class TestChaosResilience:
    def fetch_with(self, server, plan, monkeypatch):
        SolveStore(server.root).put(KEY, 5)
        monkeypatch.setenv(PLAN_ENV, plan)
        faultinject._PLAN_MEMO = None
        client = RemoteStoreClient(server.url, retry=FAST)
        assert client.fetch(SOLVE_DIR, "solve", KEY) == 5
        return client.stats

    def test_corrupt_body_is_rejected_and_refetched(
            self, server, monkeypatch):
        stats = self.fetch_with(server, f"net:corrupt@{SOLVE_DIR}#1", monkeypatch)
        assert stats.verify_rejects == 1
        assert stats.retries == 1
        assert stats.fetch_hits == 1

    def test_short_read_is_a_transient_failure(self, server, monkeypatch):
        stats = self.fetch_with(server, f"net:short_read@{SOLVE_DIR}#1",
                                monkeypatch)
        assert stats.retries == 1
        assert stats.fetch_hits == 1

    def test_dropped_request_is_retried(self, server, monkeypatch):
        stats = self.fetch_with(server, f"net:drop@{SOLVE_DIR}#1", monkeypatch)
        assert stats.retries == 1
        assert stats.fetch_hits == 1


class TestCircuitBreaker:
    def test_threshold_trips_and_cooldown_half_opens(self):
        now = [0.0]
        breaker = _Breaker(threshold=3, cooldown=10.0,
                           clock=lambda: now[0])
        for trip in (False, False, True):
            assert breaker.failure() is trip
        assert breaker.state == "open"
        assert not breaker.allow()
        now[0] = 10.0  # cooldown elapsed: exactly one probe admitted
        assert breaker.allow()
        assert breaker.state == "half_open"
        assert not breaker.allow()  # second caller still refused
        breaker.success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_re_trips_immediately(self):
        now = [0.0]
        breaker = _Breaker(threshold=3, cooldown=10.0,
                           clock=lambda: now[0])
        for _ in range(3):
            breaker.failure()
        now[0] = 10.0
        assert breaker.allow()
        assert breaker.failure()  # one probe failure, not threshold
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_open_breaker_skips_the_wire_entirely(self, tmp_path):
        client = RemoteStoreClient("http://127.0.0.1:9", retry=FAST,
                                   timeout=0.2, breaker_threshold=2)
        assert client.fetch(SOLVE_DIR, "solve", KEY) is None
        assert client.stats.breaker_trips == 1
        assert client.degraded
        # Subsequent operations degrade instantly (no timeout burned).
        assert client.fetch(SOLVE_DIR, "solve", "cd" * 32) is None
        assert client.stats.degraded_skips >= 1

    def test_half_open_probe_recovers_a_restarted_server(self, tmp_path):
        root = tmp_path / "root"
        SolveStore(root).put(KEY, 11)
        first = ShardServer(str(root)).start()
        host, port = first._httpd.server_address[:2]
        url = first.url
        first.close()  # the server "dies"
        client = RemoteStoreClient(url, timeout=0.5,
                                   breaker_threshold=1,
                                   breaker_cooldown=0.0,
                                   retry=RetryPolicy(
                                       max_attempts=1,
                                       sleep=lambda seconds: None))
        assert client.fetch(SOLVE_DIR, "solve", KEY) is None
        assert client.stats.breaker_trips == 1
        # The server comes back on the same port; the zero-cooldown
        # breaker admits one half-open probe, which succeeds and
        # closes the circuit.
        with ShardServer(str(root), host=host, port=port).start():
            assert client.fetch(SOLVE_DIR, "solve", KEY) == 11
        assert client.stats.fetch_hits == 1
        assert client.breaker.state == "closed"
        assert not client.stats.degraded_skips


class TestByteIdentity:
    BENCHMARKS = ("fibcall", "bs")

    def golden(self, tmp_path):
        with fresh_results():
            results = run_suite(
                EstimatorConfig(cache=str(tmp_path / "golden")),
                benchmarks=self.BENCHMARKS)
            return format_fig4([row_of(r) for r in results])

    def test_chaos_remote_run_matches_local_golden(
            self, server, tmp_path, monkeypatch):
        """The acceptance property: a 4-worker suite against a
        chaos-injected shard server renders byte-identically to a
        local, undisturbed run — drops retry, corruption is caught by
        verification, and nothing of it reaches stdout."""
        golden_text = self.golden(tmp_path)
        monkeypatch.setenv(REMOTE_ENV, server.url)
        monkeypatch.setenv(PLAN_ENV,
                           f"net:drop@*#1;net:corrupt@{SOLVE_DIR}#2;"
                           "net:short_read@classify-v1#1")
        faultinject._PLAN_MEMO = None
        with fresh_results():
            stats = PipelineStats()
            results = run_suite(
                EstimatorConfig(cache=str(tmp_path / "chaos"),
                                workers=4),
                benchmarks=self.BENCHMARKS, workers=4,
                pipeline_stats=stats)
            chaos_text = format_fig4([row_of(r) for r in results])
        assert chaos_text == golden_text
        # The wire was really used: the server's root gained entries
        # pushed by the run's writers.
        shards = list((server.root / SOLVE_DIR).glob("shard-*.jsonl"))
        assert shards and any(s.stat().st_size > 0 for s in shards)

    def test_dead_remote_degrades_to_local_only_byte_identically(
            self, tmp_path, monkeypatch):
        """The headline: the remote is unreachable from the start —
        the run completes from local stores, byte-identical, and the
        client records the degraded span."""
        golden_text = self.golden(tmp_path)
        monkeypatch.setenv(REMOTE_ENV, "http://127.0.0.1:9")
        monkeypatch.setenv(client_module.TIMEOUT_ENV, "0.2")
        with fresh_results():
            stats = PipelineStats()
            results = run_suite(
                EstimatorConfig(cache=str(tmp_path / "degraded")),
                benchmarks=self.BENCHMARKS, pipeline_stats=stats)
            degraded_text = format_fig4([row_of(r) for r in results])
        assert degraded_text == golden_text
        (client,) = client_module.resolved_clients()
        assert client.degraded
        assert client.stats.breaker_trips >= 1
        assert client.stats.degraded_skips >= 1
        # The degraded span is visible in the run's pipeline stats.
        assert stats.remote.get("remote_breaker_trips", 0) >= 1

    def test_warm_server_serves_a_cold_local_cache(
            self, server, tmp_path, monkeypatch):
        """Second half of the CI chaos-network job: after one run
        warmed the server, a *fresh* local cache completes the same
        suite from remote hits — byte-identically."""
        golden_text = self.golden(tmp_path)
        monkeypatch.setenv(REMOTE_ENV, server.url)
        with fresh_results():
            run_suite(EstimatorConfig(cache=str(tmp_path / "warm")),
                      benchmarks=self.BENCHMARKS)
        client_module._CLIENTS.clear()  # drop the warming run's memos
        with fresh_results():
            stats = PipelineStats()
            results = run_suite(
                EstimatorConfig(cache=str(tmp_path / "cold")),
                benchmarks=self.BENCHMARKS, pipeline_stats=stats)
            cold_text = format_fig4([row_of(r) for r in results])
        assert cold_text == golden_text
        assert stats.remote.get("remote_fetch_hits", 0) > 0
