"""In-process control-plane tests: every route, no sockets.

``ServiceApp.handle`` is the transport-facing dispatcher, so driving it
directly covers routing, validation, lifecycle, pagination, stats, and
rate limiting — everything but byte-level HTTP, which
``test_http.py`` pins separately.
"""

import json
import time

import pytest

from repro import perf, store
from repro.apps import gauss_seidel as gs
from repro.service import ServiceApp, ServiceConfig
from repro.service.app import ARTIFACT_CACHE

pytestmark = pytest.mark.usefixtures("service_store")


@pytest.fixture
def service_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))


@pytest.fixture
def app():
    return ServiceApp(ServiceConfig(sync=True))


def submit_body(**overrides):
    body = {
        "source": gs.SOURCE,
        "entry_shapes": {"Old": ["N", "N"]},
        "n": 8,
        "nprocs": 2,
        "dist": "wrapped_cols",
        "strategy": "optI",
        "tune": False,
    }
    body.update(overrides)
    return body


def submit(app, **overrides):
    return app.handle("POST", "/v1/programs", body=submit_body(**overrides))


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


def test_submit_builds_and_serves_artifact(app):
    resp = submit(app)
    assert resp.status == 200
    assert resp.body["status"] == "ready"
    artifact_id = resp.body["id"]
    assert resp.body["url"] == f"/v1/artifacts/{artifact_id}"

    got = app.handle("GET", f"/v1/artifacts/{artifact_id}")
    assert got.status == 200
    record = got.body
    assert record["status"] == "ready"
    assert record["request"]["nprocs"] == 2
    assert record["build_seconds"] > 0
    # Compiled-IR summary.
    summary = record["compile"]
    assert summary["entry"] == "gs_iteration"
    assert summary["total_statements"] > 0
    entry_proc = summary["procedures"]["gs_iteration"]
    assert entry_proc["statements"] > 0
    assert entry_proc["channels"]  # a ring app communicates
    # Verify report in the diagnostics-JSON shape.
    assert record["verify"]["verdict"] == "clean"
    assert record["verify"]["error_count"] == 0
    assert record["verify"]["diagnostics"] == []
    # Ranking explicitly opted out of.
    assert record["tune"] is None


def test_resubmit_is_deduplicated_not_rebuilt(app):
    first = submit(app)
    builds = perf.counter("service.builds")
    second = submit(app)
    assert second.status == 200
    assert second.body["id"] == first.body["id"]
    assert second.body["cached"] is True
    assert perf.counter("service.builds") == builds


def test_submissions_differing_semantically_get_distinct_ids(app):
    a = submit(app)
    b = submit(app, n=9)
    c = submit(app, strategy="compile")
    assert len({a.body["id"], b.body["id"], c.body["id"]}) == 3


def test_async_build_reaches_ready_via_polling():
    app = ServiceApp(ServiceConfig(sync=False))
    resp = submit(app)
    assert resp.status == 202
    artifact_id = resp.body["id"]
    assert resp.body["status"] == "queued"
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        got = app.handle("GET", f"/v1/artifacts/{artifact_id}")
        assert got.status == 200
        if got.body["status"] == "ready":
            break
        assert got.body["status"] in ("queued", "building")
        time.sleep(0.02)
    else:
        pytest.fail("artifact never became ready")
    assert got.body["verify"]["verdict"] == "clean"


def test_poll_racing_a_finishing_build_never_404s(monkeypatch):
    """A build that completes while a poll is between its lookups must
    not turn an accepted id into a 404. The store stub finishes the
    build inside the poll's store read, which (like a real race) sees
    the store from just before the build's put."""
    app = ServiceApp(ServiceConfig(sync=False))
    monkeypatch.setattr(app, "_ensure_worker", lambda: None)
    resp = submit(app)
    assert resp.status == 202
    artifact_id = resp.body["id"]
    real = store.get_store()

    class RacingStore:
        def __getattr__(self, name):
            return getattr(real, name)

        def fetch(self, cache, key):
            found = real.fetch(cache, key)
            if cache == ARTIFACT_CACHE and key == artifact_id:
                app._build(artifact_id)
            return found

    monkeypatch.setattr(store, "get_store", lambda: RacingStore())
    got = app.handle("GET", f"/v1/artifacts/{artifact_id}")
    assert got.status == 200, got.body
    assert got.body["status"] in ("queued", "building", "ready")
    app._build(artifact_id)  # a no-op if the poll already raced it
    final = app.handle("GET", f"/v1/artifacts/{artifact_id}")
    assert final.status == 200
    assert final.body["status"] == "ready"


def test_uncompilable_program_yields_failed_artifact(app):
    resp = submit(app, source="map A by wrapped_cols;\nthis is not mini-Id")
    assert resp.status == 200
    assert resp.body["status"] == "failed"
    record = app.handle("GET", f"/v1/artifacts/{resp.body['id']}").body
    assert record["status"] == "failed"
    assert "error" in record
    # Deterministic failures are cached like successes.
    builds = perf.counter("service.builds")
    again = submit(app, source="map A by wrapped_cols;\nthis is not mini-Id")
    assert again.body["cached"] is True
    assert perf.counter("service.builds") == builds


def test_verifier_diagnostics_ride_on_the_artifact(app):
    from repro.apps import jacobi

    # Loop jamming introduces the classic deadlock; the verifier flags
    # it (DL001) but the artifact still builds — diagnostics are data.
    resp = submit(
        app,
        source=jacobi.SOURCE_WRAPPED,
        entry="jacobi_step",
        strategy="optII",
        nprocs=4,
        n=16,
    )
    assert resp.body["status"] == "ready"
    record = app.handle("GET", f"/v1/artifacts/{resp.body['id']}").body
    assert record["verify"]["verdict"] == "errors"
    codes = {d["code"] for d in record["verify"]["diagnostics"]}
    assert "DL001" in codes


def test_tune_ranking_served_from_artifact(app):
    resp = submit(
        app,
        strategy="optIII",
        tune={"top_k": 1, "strategies": ["optI", "optIII"]},
    )
    assert resp.body["status"] == "ready"
    record = app.handle("GET", f"/v1/artifacts/{resp.body['id']}").body
    ranking = record["tune"]
    assert ranking["space_size"] == 2
    assert ranking["simulations"] >= 1
    assert ranking["best"] is not None
    labels = [c["label"] for c in ranking["candidates"]]
    assert len(labels) == 2
    assert ranking["best"]["measured_us"] > 0


def test_unknown_artifact_is_404(app):
    resp = app.handle("GET", f"/v1/artifacts/{'0' * 64}")
    assert resp.status == 404
    assert "unknown artifact" in resp.body["error"]


# ---------------------------------------------------------------------------
# Validation and routing errors
# ---------------------------------------------------------------------------


def test_invalid_json_body_is_400(app):
    resp = app.handle("POST", "/v1/programs", body=b"{nope")
    assert resp.status == 400
    assert resp.body["field"] == "body"


def test_schema_error_names_the_field(app):
    resp = app.handle(
        "POST", "/v1/programs",
        body=json.dumps(submit_body(strategy="optIX")),
    )
    assert resp.status == 400
    assert resp.body["field"] == "strategy"


def test_unknown_route_404_and_wrong_method_405(app):
    assert app.handle("GET", "/v2/frobnicate").status == 404
    resp = app.handle("POST", "/v1/health")
    assert resp.status == 405
    assert resp.headers["Allow"] == "GET"


def test_handler_crash_is_a_500_not_a_hang(app, monkeypatch):
    def boom(**kwargs):
        raise RuntimeError("kaboom")

    monkeypatch.setattr(app, "route_stats", boom)
    resp = app.handle("GET", "/v1/stats")
    assert resp.status == 500
    assert resp.body["error"] == "internal error"


# ---------------------------------------------------------------------------
# Pagination
# ---------------------------------------------------------------------------


def test_listing_is_keyset_paginated_in_id_order(app):
    ids = sorted(submit(app, n=8 + i).body["id"] for i in range(5))
    page1 = app.handle("GET", "/v1/artifacts", query={"limit": "2"}).body
    assert [a["id"] for a in page1["artifacts"]] == ids[:2]
    assert page1["total"] == 5
    assert page1["next_after"] == ids[1]
    page2 = app.handle(
        "GET", "/v1/artifacts",
        query={"limit": "2", "after": page1["next_after"]},
    ).body
    assert [a["id"] for a in page2["artifacts"]] == ids[2:4]
    page3 = app.handle(
        "GET", "/v1/artifacts",
        query={"limit": "2", "after": page2["next_after"]},
    ).body
    assert [a["id"] for a in page3["artifacts"]] == ids[4:]
    assert "next_after" not in page3  # final page carries no cursor


def test_listing_items_carry_status_and_request_fields(app):
    submit(app)
    items = app.handle("GET", "/v1/artifacts").body["artifacts"]
    assert items[0]["status"] == "ready"
    assert items[0]["strategy"] == "optI"
    assert items[0]["nprocs"] == 2


def test_listing_sees_other_replicas_artifacts(app):
    artifact_id = submit(app).body["id"]
    replica = ServiceApp(ServiceConfig(sync=True))
    listing = replica.handle("GET", "/v1/artifacts").body
    assert [a["id"] for a in listing["artifacts"]] == [artifact_id]


def test_listing_rejects_bad_cursor_and_limit(app):
    assert app.handle(
        "GET", "/v1/artifacts", query={"after": "zz"}
    ).status == 400
    assert app.handle(
        "GET", "/v1/artifacts", query={"limit": "0"}
    ).status == 400
    assert app.handle(
        "GET", "/v1/artifacts", query={"limit": "nine"}
    ).status == 400


# ---------------------------------------------------------------------------
# Health, stats, rate limiting, logging
# ---------------------------------------------------------------------------


def test_health_reports_ok_and_uptime(app):
    resp = app.handle("GET", "/v1/health")
    assert resp.status == 200
    assert resp.body["status"] == "ok"
    assert resp.body["uptime_s"] >= 0
    assert resp.body["store_enabled"] is True


def test_stats_surface_cache_and_store_counters(app):
    submitted = perf.counter("service.submitted")
    builds = perf.counter("service.builds")
    submit(app)
    stats = app.handle("GET", "/v1/stats").body
    # Counters are process-cumulative (they merge across bench workers);
    # assert the deltas this test caused.
    assert stats["service"]["submitted"] == submitted + 1
    assert stats["service"]["builds"] == builds + 1
    assert stats["artifacts"]["in_memory"] == 1
    assert stats["artifacts"]["on_disk"] == 1
    assert stats["store"]["enabled"] is True
    assert stats["store"]["entries"] >= 1
    assert stats["store"]["size_bytes"] > 0
    # perf.cache_stats() rides along wholesale (ROADMAP item 5 feeds on
    # these): the compile cache must show this build's activity.
    assert stats["cache_stats"]["compile"]["misses"] >= 1
    assert stats["ratelimit"]["allowed"] >= 1
    # The stats snapshot predates its own log entry; the submit is there.
    assert stats["recent_requests"][-1]["path"] == "/v1/programs"


def test_rate_limiter_returns_429_with_retry_after():
    clock_now = [0.0]
    app = ServiceApp(
        ServiceConfig(sync=True, rate_capacity=2, rate_per_s=1.0),
        clock=lambda: clock_now[0],
    )
    assert app.handle("GET", "/v1/stats", client="c").status == 200
    assert app.handle("GET", "/v1/stats", client="c").status == 200
    resp = app.handle("GET", "/v1/stats", client="c")
    assert resp.status == 429
    assert float(resp.headers["Retry-After"]) > 0
    assert perf.counter("service.rate_limited") >= 1
    # Tokens refill with time; an unrelated client was never throttled.
    clock_now[0] += 5.0
    assert app.handle("GET", "/v1/stats", client="c").status == 200
    assert app.handle("GET", "/v1/stats", client="other").status == 200


def test_health_is_exempt_from_rate_limiting():
    app = ServiceApp(
        ServiceConfig(sync=True, rate_capacity=1, rate_per_s=0.001),
        clock=lambda: 0.0,
    )
    for _ in range(5):
        assert app.handle("GET", "/v1/health", client="probe").status == 200


def test_request_log_records_method_path_status(app):
    submit(app)
    app.handle("GET", f"/v1/artifacts/{'0' * 64}")
    entries = list(app.request_log)
    assert entries[0]["method"] == "POST"
    assert entries[0]["status"] == 200
    assert entries[-1]["status"] == 404
    assert all("ms" in e for e in entries)


# ---------------------------------------------------------------------------
# Cross-replica warm serving (the store is the source of truth)
# ---------------------------------------------------------------------------


def test_second_replica_serves_artifact_warm_from_store(app):
    artifact_id = submit(app).body["id"]

    replica = ServiceApp(ServiceConfig(sync=True))
    store_hits = perf.counter(f"store.{ARTIFACT_CACHE}.hit")
    compile_misses = perf.counter("compile.miss")
    got = replica.handle("GET", f"/v1/artifacts/{artifact_id}")
    assert got.status == 200
    assert got.body["status"] == "ready"
    # Served from the disk tier: a store hit, and no compilation at all.
    assert perf.counter(f"store.{ARTIFACT_CACHE}.hit") == store_hits + 1
    assert perf.counter("compile.miss") == compile_misses

    # A re-*submit* on the replica dedups against the store too.
    builds = perf.counter("service.builds")
    resub = submit(replica)
    assert resub.body["id"] == artifact_id
    assert resub.body["cached"] is True
    assert perf.counter("service.builds") == builds


def test_artifact_record_pickled_in_store_is_json_safe(app):
    artifact_id = submit(app).body["id"]
    found, record = store.get_store().fetch(ARTIFACT_CACHE, artifact_id)
    assert found
    json.dumps(record)  # no Python-only types leaked into the record


def test_auto_maps_ranking_attached(app):
    """tune.auto_maps derives the distribution axis server-side; the
    artifact's ranking carries the provenance."""
    resp = submit(
        app,
        tune={"auto_maps": True, "top_k": 0, "strategies": ["compile"]},
    )
    assert resp.status == 200
    record = app.handle("GET", f"/v1/artifacts/{resp.body['id']}").body
    ranking = record["tune"]
    assert "error" not in ranking
    derived = [m["dist"] for m in ranking["auto_maps"]]
    assert derived
    assert {c["dist"] for c in ranking["candidates"]} <= set(derived)
