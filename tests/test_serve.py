"""Tests for repro.serve — the estimation service.

One module-scoped server (pool startup is the expensive part) backs
most tests; correctness is checked by comparing served estimates
against direct in-process :class:`~repro.core.PowerEstimator` calls
on identical circuits and stimulus.  Also covers the obs flush /
periodic-export API that long-running servers rely on.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro import obs, serve
from repro import store as artifact_store
from repro.core import PowerEstimator
from repro.logic import fastsim
from repro.logic.generators import counter, parity_tree, \
    random_logic, ripple_carry_adder

@pytest.fixture(scope="module")
def server():
    # The server leaves this process's REPRO_STORE and store singleton
    # alone (TestStoreSharing checks that); start from a fresh
    # singleton and restore both afterwards anyway, so later test
    # modules see a clean slate whatever a test here configures.
    prev_env = os.environ.get(artifact_store.ENV_DIR)
    prev_store = artifact_store.set_store(None)
    try:
        with serve.EstimationServer(workers=2) as srv:
            yield srv
    finally:
        if prev_env is None:
            os.environ.pop(artifact_store.ENV_DIR, None)
        else:
            os.environ[artifact_store.ENV_DIR] = prev_env
        artifact_store.set_store(prev_store)


@pytest.fixture(scope="module")
def client(server):
    return serve.Client(*server.address)


def _job(generator, params, technique="simulation", **kw):
    job = {"circuit": {"generator": generator, "params": params},
           "technique": technique}
    job.update(kw)
    return job


class TestEndpoints:
    def test_healthz(self, client, server):
        health = client.healthz()
        assert health["ok"] is True
        assert health["workers"] == 2
        assert health["store_dir"] == server._store_dir

    def test_unknown_route_404(self, client):
        status, lines = client._request("GET", "/nope")
        assert status == 404
        assert lines[0]["ok"] is False

    def test_bad_body_400(self, client):
        status, lines = client._request("POST", "/estimate",
                                        {"jobs": []})
        assert status == 400
        assert "jobs" in lines[0]["error"]

    def test_stats_shape(self, client):
        client.estimate([_job("parity_tree", {"width": 8},
                              cycles=64, seed=1)])
        stats = client.stats()
        assert stats["workers"] == 2
        assert stats["counters"]["jobs"] >= 1
        assert "p50_ms" in stats["latency"]
        assert "p99_ms" in stats["latency"]
        assert "hit_rate" in stats["store"]

    def test_stats_store_counts_worker_traffic(self, client):
        """The jobs run in the pool workers, so ``/stats`` must sum
        their store traffic, not read the HTTP process's own store."""
        jobs = [_job("ripple_carry_adder", {"width": 6}, cycles=128,
                     seed=k) for k in range(3)]
        before = client.stats()["store"]
        summaries = [client.estimate(jobs)["summary"] for _ in range(2)]
        after = client.stats()["store"]
        hits = sum(s["store_hits"] for s in summaries)
        misses = sum(s["store_misses"] for s in summaries)
        assert hits > 0
        assert after["hits"] - before["hits"] == hits
        assert after["misses"] - before["misses"] == misses

    def test_telemetry_export_shape(self, client):
        telemetry = client.telemetry()
        assert telemetry["schema"] == obs.SCHEMA
        assert "metrics" in telemetry and "spans" in telemetry


class TestEstimation:
    def test_matches_direct_estimator(self, client):
        job = _job("ripple_carry_adder", {"width": 8},
                   cycles=256, seed=42)
        served = client.estimate([job])["results"][0]
        assert served["ok"], served

        circuit = ripple_carry_adder(8)
        vectors = fastsim.random_packed_vectors(
            circuit.inputs, 256, seed=42)
        direct = PowerEstimator().gate(circuit, vectors)
        assert served["power"] == pytest.approx(direct.power, rel=1e-12)
        assert served["technique"] == direct.technique
        assert served["fingerprint"] == circuit.fingerprint()

    def test_event_driven_matches_direct(self, client):
        job = _job("counter", {"width": 6}, technique="event-driven",
                   cycles=128, seed=7)
        served = client.estimate([job])["results"][0]
        assert served["ok"], served
        circuit = counter(6)
        vectors = fastsim.random_packed_vectors(
            circuit.inputs, 128, seed=7)
        direct = PowerEstimator().gate(circuit, vectors,
                                       technique="event-driven")
        assert served["power"] == pytest.approx(direct.power, rel=1e-12)

    def test_analytical_techniques(self, client):
        jobs = [_job("parity_tree", {"width": 8},
                     technique="probabilistic"),
                _job("parity_tree", {"width": 8},
                     technique="monte-carlo", seed=3)]
        results = client.estimate(jobs)["results"]
        assert all(r["ok"] for r in results)
        direct = PowerEstimator().gate(parity_tree(8),
                                       technique="probabilistic")
        assert results[0]["power"] == pytest.approx(direct.power,
                                                    rel=1e-12)

    def test_netlist_job(self, client):
        circuit = ripple_carry_adder(4)
        job = {"circuit": {"netlist": circuit.to_dict()},
               "technique": "simulation", "cycles": 64, "seed": 5}
        served = client.estimate([job])["results"][0]
        assert served["ok"], served
        assert served["fingerprint"] == circuit.fingerprint()

    def test_results_follow_submission_order(self, client):
        jobs = [_job("ripple_carry_adder", {"width": w},
                     cycles=32, seed=1, id=f"w{w}")
                for w in (8, 2, 6, 4)]
        results = client.estimate(jobs)["results"]
        assert [r["id"] for r in results] == ["w8", "w2", "w6", "w4"]

    def test_vdd_freq_scaling(self, client):
        base = _job("parity_tree", {"width": 6}, cycles=64, seed=2)
        scaled = dict(base, vdd=2.0)
        r_base, r_scaled = client.estimate(
            [base, scaled])["results"]
        # Dynamic power scales as Vdd^2.
        assert r_scaled["power"] == pytest.approx(4 * r_base["power"],
                                                  rel=1e-9)

    def test_sharded_job_close_to_serial(self, client):
        serial = _job("ripple_carry_adder", {"width": 8},
                      cycles=512, seed=9)
        sharded = dict(serial, shards=4)
        r_serial, r_sharded = client.estimate(
            [serial, sharded])["results"]
        assert r_sharded["ok"] and r_sharded["shards"] == 4
        assert r_sharded["cycles"] == 512
        # Different stimulus partitions: statistically close, not equal.
        assert r_sharded["power"] == pytest.approx(r_serial["power"],
                                                   rel=0.15)

    def test_bad_jobs_do_not_poison_batch(self, client):
        jobs = [_job("ripple_carry_adder", {"width": 4},
                     cycles=32, seed=1, id="good"),
                {"circuit": {"generator": "os.system"},
                 "technique": "simulation", "id": "evil"},
                {"circuit": {"generator": "counter",
                             "params": {"width": 4}},
                 "technique": "nonsense", "id": "bad-technique"},
                {"circuit": {}, "id": "empty"},
                _job("ripple_carry_adder", {"width": 4}, cycles=32,
                     seed=1, engine="numpy", id="retired-engine")]
        out = client.estimate(jobs)
        by_id = {r["id"]: r for r in out["results"]}
        assert by_id["good"]["ok"] is True
        assert by_id["evil"]["ok"] is False
        assert "unknown generator" in by_id["evil"]["error"]
        assert by_id["bad-technique"]["ok"] is False
        assert by_id["empty"]["ok"] is False
        assert by_id["retired-engine"]["ok"] is False
        assert "unknown engine" in by_id["retired-engine"]["error"]
        assert out["summary"]["ok"] == 1
        assert out["summary"]["failed"] == 4

    def test_repeat_batch_hits_store(self, client):
        jobs = [_job("ripple_carry_adder", {"width": 12},
                     cycles=128, seed=4),
                _job("counter", {"width": 9},
                     technique="event-driven", cycles=128, seed=4)]
        client.estimate(jobs)                 # warm the shared store
        summary = client.estimate(jobs)["summary"]
        assert summary["store_hits"] > 0
        assert summary["store_hit_rate"] > 0
        assert summary["store_misses"] == 0

    def test_jobs_spread_across_workers(self, client):
        # Each job takes ~25 ms in a worker on a 2-vCPU host (500
        # gates x 65,536 cycles), so one worker cannot drain the batch
        # before the other picks up a job.
        params = {"n_inputs": 16, "n_gates": 500, "n_outputs": 8,
                  "seed": 3}
        jobs = [_job("random_logic", params, cycles=65536,
                     seed=i, id=i) for i in range(8)]
        results = client.estimate(jobs)["results"]
        assert all(r["ok"] for r in results), results
        pids = {r["pid"] for r in results}
        assert os.getpid() not in pids
        assert len(pids) > 1


class TestSelfCheck:
    def test_self_check_passes(self, capsys):
        assert serve._self_check(workers=2) == 0
        assert "self-check: OK" in capsys.readouterr().out


class TestObsFlush:
    def test_flush_noop_without_target(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_EXPORT", raising=False)
        assert obs.flush() is None

    def test_flush_writes_export(self, tmp_path):
        target = tmp_path / "telemetry.json"
        obs.enable()
        try:
            obs.inc("test.flush.marker")
            state = obs.flush(str(target))
        finally:
            obs.disable()
        assert state is not None
        on_disk = obs.load_export(str(target))
        assert on_disk["schema"] == obs.SCHEMA
        assert "test.flush.marker" in json.dumps(on_disk["metrics"])

    def test_flush_env_target(self, tmp_path, monkeypatch):
        target = tmp_path / "env-telemetry.json"
        monkeypatch.setenv("REPRO_OBS_EXPORT", str(target))
        obs.enable()
        try:
            assert obs.flush() is not None
        finally:
            obs.disable()
        assert target.exists()

    def test_periodic_export(self, tmp_path):
        target = tmp_path / "periodic.json"
        exporter = obs.start_periodic_export(0.05, str(target))
        assert exporter is not None
        try:
            obs.inc("test.periodic.marker")
            deadline = time.time() + 5.0
            while not target.exists() and time.time() < deadline:
                time.sleep(0.02)
            assert target.exists(), "periodic exporter never flushed"
        finally:
            obs.stop_periodic_export()
            obs.disable()
        # stop() leaves a final, complete export behind.
        assert obs.load_export(str(target))["schema"] == obs.SCHEMA

    def test_periodic_export_needs_target(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_EXPORT", raising=False)
        assert obs.start_periodic_export(0.05) is None

    def test_stop_is_idempotent(self):
        obs.stop_periodic_export()
        obs.stop_periodic_export()


class TestStoreSharing:
    def test_server_leaves_parent_store_alone(self, monkeypatch):
        # Workers get the store directory through their initializer;
        # this process keeps its store and environment, so the private
        # directory stop() deletes is never written again from here.
        monkeypatch.delenv(artifact_store.ENV_DIR, raising=False)
        prev_store = artifact_store.set_store(None)
        try:
            before = artifact_store.get_store()
            with serve.EstimationServer(workers=1) as srv:
                private = srv._store_dir
                served = serve.Client(*srv.address).estimate(
                    [_job("ripple_carry_adder", {"width": 5},
                          cycles=64, seed=1)])["results"][0]
                assert served["ok"], served
                assert os.path.isdir(private)
                assert artifact_store.get_store() is before
                assert artifact_store.ENV_DIR not in os.environ
            assert artifact_store.get_store() is before
            assert artifact_store.ENV_DIR not in os.environ
            assert not os.path.exists(private)
            # A never-seen structure: the estimate publishes its plan
            # to this process's store, which must not recreate the
            # deleted directory.
            circuit = random_logic(9, 50, 3, seed=424242)
            vectors = fastsim.random_packed_vectors(circuit.inputs, 64,
                                                    seed=1)
            puts = before.stats()["puts"]
            PowerEstimator().gate(circuit, vectors)
            assert before.stats()["puts"] > puts
            assert not os.path.exists(private)
        finally:
            artifact_store.set_store(prev_store)

    def test_workers_share_disk_store(self, server, client):
        # A structure no other test uses: first encounter compiles
        # and publishes; any later worker must rehydrate from disk.
        job = _job("ripple_carry_adder", {"width": 15},
                   cycles=64, seed=8)
        first = client.estimate([job])["results"][0]
        assert first["store_misses"] > 0
        repeats = client.estimate([dict(job, seed=i, id=i)
                                   for i in range(4)])
        for r in repeats["results"]:
            assert r["ok"]
            assert r["store_misses"] == 0
        assert repeats["summary"]["store_hits"] >= 4


# ----------------------------------------------------------------------
# Worker death: a broken pool is replaced, never a dead service
# ----------------------------------------------------------------------
def _wait_reaped(pid: int, timeout: float = 30.0) -> None:
    """Wait until the pool has noticed ``pid``'s death and joined it
    (a dead but unjoined worker still answers signal 0)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    raise AssertionError(f"worker {pid} was never reaped")


def _cpu_ticks(pid: int) -> int:
    """User + system CPU ticks of ``pid`` (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])


class TestPoolFaults:
    @pytest.fixture
    def own_server(self):
        with serve.EstimationServer(workers=2) as srv:
            yield srv

    @staticmethod
    def _quick_jobs():
        return [_job("ripple_carry_adder", {"width": 6}, cycles=64,
                     seed=k, id=k) for k in range(4)]

    def test_kill_between_batches(self, own_server):
        client = serve.Client(*own_server.address)
        first = client.estimate(self._quick_jobs())
        assert all(r["ok"] for r in first["results"]), first
        victim = first["results"][0]["pid"]
        os.kill(victim, signal.SIGKILL)
        _wait_reaped(victim)

        second = client.estimate(self._quick_jobs())
        assert len(second["results"]) == 4
        assert all(r["ok"] for r in second["results"]), second
        assert victim not in {r["pid"] for r in second["results"]}
        assert client.stats()["counters"]["pool_restarts"] == 1

    def test_kill_mid_batch(self, own_server):
        client = serve.Client(*own_server.address)
        # ~0.5 s per job on a 2-vCPU host: the scalar event-driven
        # reference engine.
        slow = [_job("ripple_carry_adder", {"width": 8},
                     technique="event-driven", engine="reference",
                     cycles=2000, seed=k, id=k) for k in range(4)]
        victim = sorted(own_server._pool._processes)[0]
        idle = _cpu_ticks(victim)
        reply = {}

        def post():
            reply["status"], reply["lines"] = client._request(
                "POST", "/estimate", {"jobs": slow})

        poster = threading.Thread(target=post)
        poster.start()
        # Kill the victim once it is busy with a job of this batch.
        busy = max(1, os.sysconf("SC_CLK_TCK") // 20)
        deadline = time.monotonic() + 30.0
        while _cpu_ticks(victim) - idle < busy:
            assert time.monotonic() < deadline, "victim never got a job"
            time.sleep(0.005)
        os.kill(victim, signal.SIGKILL)
        poster.join(timeout=120)
        assert not poster.is_alive()

        assert reply["status"] == 200
        *results, summary = reply["lines"]
        assert summary["summary"]["jobs"] == len(slow)
        assert len(results) == len(slow)
        failed = [r for r in results if not r["ok"]]
        assert failed
        assert all("BrokenProcessPool" in r["error"] for r in failed)
        assert summary["summary"]["failed"] == len(failed)

        after = client.estimate(self._quick_jobs())
        assert len(after["results"]) == 4
        assert all(r["ok"] for r in after["results"]), after
        assert client.stats()["counters"]["pool_restarts"] == 1
