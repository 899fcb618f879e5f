"""``service-mix``: the HTTP service under two keep-alive clients.

The service runs in its own process (:mod:`serve`), as deployed, on a
fresh empty store directory. Two client threads, each on one persistent
HTTP/1.1 connection, run closed-loop rounds. In a round each client
does three times: submit a new program variant, then three reads. A
submit is a POST of a seeded variant (gauss_seidel or jacobi with a
constant no earlier request used, and a drawn dist, strategy, N and S;
one in four asks for a narrow predict-only ranking), timed until the
GET that returns it ``ready``. A read is a GET of a ready artifact, a
re-submit answered from cache, or a page of the artifact listing.

The transport is measured as clients see it and is not worked around:
the stdlib handler writes headers and body in two sends, so on a reused
connection Nagle's algorithm holds the body until the client's delayed
ACK, about 40 ms per request. The limiter settings are in :mod:`serve`;
a 429 fails its op. ``op_ms`` is the median read and ``wall_s`` the
fastest round; submit-to-ready times and tails are in the report.

Checks: every submit is accepted and its artifact reaches ``ready``
with the verifier verdict its request implies (jacobi's jammed optII
and optIII on wrapped columns deadlock, everything else is clean), and
its ranking, when asked for, ranks every candidate or prunes it by the
verifier; every read returns what was stored.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import median, metric, peak_rss_mb, timing_line

HERE = Path(__file__).resolve().parent
CLIENTS = 2
SUBMITS_PER_ROUND = 3  # per client
READS_PER_SUBMIT = 3
DISTS = ("wrapped_cols", "block_cols", "wrapped_rows", "block_rows")
STRATEGIES = ("runtime", "compile", "optI", "optII", "optIII")
RANKING = {"top_k": 0, "strategies": ["optI", "optIII"]}
READY_TIMEOUT_S = 60.0
LIST_LIMIT = 10


class Server:
    """One service process on its own store directory."""

    def __init__(self, src: str, workdir: str, name: str, spans: bool):
        self.src = src
        self.store = Path(workdir) / f"store-{name}"
        self.spans = Path(workdir) / f"spans-{name}.json" if spans else None
        self.proc = None
        self.port = None

    def start(self) -> None:
        """Launch and wait until ``/v1/health`` answers ok."""
        cmd = [sys.executable, str(HERE / "serve.py"), "--src", self.src,
               "--store", str(self.store)]
        if self.spans is not None:
            cmd += ["--spans", str(self.spans)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError("service process did not report a port")
        self.port = int(line)
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/v1/health")
            resp = conn.getresponse()
            body = json.loads(resp.read())
        finally:
            conn.close()
        if resp.status != 200 or body.get("status") != "ok":
            self.stop()
            raise RuntimeError(f"service unhealthy: {resp.status} {body}")

    def stop(self) -> "dict | None":
        """SIGTERM, wait, and return the span dump if one was asked for."""
        if self.proc is None:
            return None
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None
        if self.spans is not None and self.spans.exists():
            return json.loads(self.spans.read_text())
        return None


def _variant(rng: random.Random, constant: int) -> tuple[dict, str, bool]:
    """(request body, expected verdict, ranked) of one new program."""
    from repro.apps import gauss_seidel, jacobi

    app = rng.choice(("gauss_seidel", "jacobi"))
    source, entry = (
        (gauss_seidel.SOURCE, None) if app == "gauss_seidel"
        else (jacobi.SOURCE_WRAPPED, "jacobi_step")
    )
    dist = rng.choice(DISTS)
    strategy = rng.choice(STRATEGIES)
    ranked = rng.random() < 0.25
    payload = {
        "source": source.replace("const c = 1;", f"const c = {constant};"),
        "dist": dist,
        "strategy": strategy,
        "nprocs": rng.choice((2, 4)),
        "n": rng.choice((16, 24)),
        "entry_shapes": {"Old": ["N", "N"]},
        "tune": dict(RANKING) if ranked else False,
    }
    if entry is not None:
        payload["entry"] = entry
    deadlocks = (
        app == "jacobi" and dist == "wrapped_cols"
        and strategy in ("optII", "optIII")
    )
    return payload, "errors" if deadlocks else "clean", ranked


class Client:
    """One load-generating thread's connection and observations."""

    def __init__(self, index: int, port: int, seed: int, shared: dict):
        self.index = index
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.seed = seed
        self.shared = shared  # {"lock", "ready": [...]}
        self.submitted = 0
        self.checks: list[tuple[bool, str]] = []
        self.requests: list[float] = []
        self.submit_times: list[float] = []
        self.read_times: list[float] = []
        self.rankings: list[dict] = []

    def _call(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        t0 = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        data = resp.read()
        elapsed = time.perf_counter() - t0
        self.requests.append(elapsed)
        return resp.status, json.loads(data), elapsed

    def _check(self, ok: bool, what: str) -> None:
        self.checks.append((ok, what))

    def run_round(self, index: int) -> None:
        rng = random.Random(f"service-mix:{self.seed}:{self.index}:{index}")
        for _ in range(SUBMITS_PER_ROUND):
            self._op(self._submit, rng)
            for _ in range(READS_PER_SUBMIT):
                kind = rng.choice(("get", "get", "resubmit", "list"))
                self._op(getattr(self, f"_{kind}"), rng)

    def _op(self, op, rng) -> None:
        try:
            op(rng)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self._check(False, f"{op.__name__}: {type(exc).__name__}: {exc}")
            self.conn.close()  # reconnects on the next request

    def _submit(self, rng) -> None:
        constant = 2 + CLIENTS * self.submitted + self.index
        self.submitted += 1
        payload, verdict, ranked = _variant(rng, constant)
        t0 = time.perf_counter()
        status, body, _ = self._call("POST", "/v1/programs", payload)
        if status != 202 or body.get("status") != "queued":
            self._check(False, f"submit answered {status} {body}")
            return
        url = body["url"]
        record = body
        while record.get("status") not in ("ready", "failed"):
            if time.perf_counter() - t0 > READY_TIMEOUT_S:
                self._check(False, f"{url} not ready after {READY_TIMEOUT_S} s")
                return
            status, record, _ = self._call("GET", url)
            if status != 200:
                self._check(False, f"poll of {url} answered {status}")
                return
        self.submit_times.append(time.perf_counter() - t0)
        problems = []
        if record["status"] != "ready":
            problems.append(f"status {record['status']}: {record.get('error')}")
        elif record["verify"]["verdict"] != verdict:
            problems.append(
                f"verdict {record['verify']['verdict']}, expected {verdict}"
            )
        ranking = record.get("tune") if record["status"] == "ready" else None
        if ranked and record["status"] == "ready":
            problems += _ranking_problems(ranking)
            self.rankings.append(ranking)
        elif not ranked and ranking is not None:
            problems.append("unrequested ranking")
        self._check(not problems, f"submit {url}: " + "; ".join(problems))
        if not problems:
            with self.shared["lock"]:
                self.shared["ready"].append(
                    {"id": body["id"], "payload": payload, "verdict": verdict}
                )

    def _pick(self, rng) -> "dict | None":
        with self.shared["lock"]:
            ready = list(self.shared["ready"])
        return rng.choice(ready) if ready else None

    def _get(self, rng) -> None:
        item = self._pick(rng)
        if item is None:
            return self._list(rng)
        status, record, elapsed = self._call(
            "GET", f"/v1/artifacts/{item['id']}"
        )
        self.read_times.append(elapsed)
        self._check(
            status == 200 and record.get("id") == item["id"]
            and record.get("status") == "ready"
            and record["verify"]["verdict"] == item["verdict"],
            f"get {item['id']} answered {status} {record.get('status')}",
        )

    def _resubmit(self, rng) -> None:
        item = self._pick(rng)
        if item is None:
            return self._list(rng)
        status, body, elapsed = self._call(
            "POST", "/v1/programs", item["payload"]
        )
        self.read_times.append(elapsed)
        self._check(
            status == 200 and body.get("id") == item["id"]
            and body.get("status") == "ready" and body.get("cached") is True,
            f"re-submit of {item['id']} answered {status} {body}",
        )

    def _list(self, rng) -> None:
        item = self._pick(rng)
        after = item["id"] if item is not None else ""
        path = f"/v1/artifacts?limit={LIST_LIMIT}"
        if after:
            path += f"&after={after}"
        status, body, elapsed = self._call("GET", path)
        self.read_times.append(elapsed)
        ids = [a.get("id") for a in body.get("artifacts", [])]
        self._check(
            status == 200 and len(ids) <= LIST_LIMIT
            and ids == sorted(ids) and all(i > after for i in ids),
            f"list after {after!r} answered {status} with {len(ids)} ids",
        )


def _ranking_problems(ranking) -> list[str]:
    if not isinstance(ranking, dict) or "error" in ranking:
        return [f"ranking failed: {ranking}"]
    problems = []
    if ranking.get("simulations") != 0:
        problems.append("predict-only ranking ran simulations")
    for cand in ranking.get("candidates", []):
        if cand["predicted_us"] is None and not (
            cand["error"] or ""
        ).startswith("verify:"):
            problems.append(f"candidate {cand['label']}: {cand['error']}")
    return problems


def _measure(run, server: Server, rounds: "int | None") -> dict:
    shared = {"lock": threading.Lock(), "ready": []}
    clients = [
        Client(i, server.port, run.seed, shared) for i in range(CLIENTS)
    ]
    deadline = time.perf_counter() + run.seconds
    walls = []
    index = 0
    while (index < rounds) if rounds is not None else (
        index == 0 or time.perf_counter() < deadline
    ):
        threads = [
            threading.Thread(target=c.run_round, args=(index,))
            for c in clients
        ]
        t_round = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        walls.append(time.perf_counter() - t_round)
        index += 1
    for c in clients:
        c.conn.close()
        for ok, what in c.checks:
            run.check(ok, what)
    return {
        "rounds": index,
        "walls": walls,
        "submit": [t for c in clients for t in c.submit_times],
        "read": [t for c in clients for t in c.read_times],
        "requests": [t for c in clients for t in c.requests],
        "rankings": [r for c in clients for r in c.rankings],
    }


def _describe(run, result) -> None:
    run.note(
        timing_line("submit_ready_ms (POST to ready GET)", result["submit"],
                    "ms", 1e3)
    )
    run.note(timing_line("read_ms (GET, re-submit, list)", result["read"],
                         "ms", 1e3))
    run.note(timing_line("request_ms (every HTTP request)",
                         result["requests"], "ms", 1e3))
    run.note(
        f"rounds: {result['rounds']}, fastest round: "
        f"{min(result['walls']):.4f} s, clients: {CLIENTS} keep-alive"
    )


def _service_values(dump: dict, spans: list, result: dict,
                    wall: float) -> dict:
    from layers import cache_metrics

    handles = [s for s in spans if s[2] == "service.handle"]
    submits = [
        s for s in handles
        if s[5] and s[5]["method"] == "POST" and s[5]["path"] == "/v1/programs"
    ]
    queued_at = {}
    for s in submits:
        if s[5]["status"] == "queued":
            queued_at.setdefault(s[5]["id"], s[4])
    waits = [
        s[3] - queued_at[s[5]["id"]] for s in spans
        if s[2] == "service.build" and s[5] and s[5]["id"] in queued_at
    ]
    handled = sum(s[4] - s[3] for s in handles)
    rankings = result["rankings"]
    space = sum(r["space_size"] for r in rankings)
    values = cache_metrics(dump["cache_stats"], dump["counters"])
    values.update(
        {
            "service.queue_wait_pct": 100.0 * sum(waits) / wall,
            "service.cached_ratio": (
                sum(1 for s in submits if s[5]["cached"]) / len(submits)
                if submits else 0.0
            ),
            "tune.pruned_ratio": (
                sum(
                    1 for r in rankings for c in r["candidates"]
                    if (c["error"] or "").startswith("verify:")
                ) / space if space else 0.0
            ),
            "bench.untimed_share": 1.0 - handled / sum(result["requests"]),
        }
    )
    return values


def run(run, src: str) -> dict:
    from layers import layer_metrics

    setup_times = []
    server = None
    for attempt in range(3):
        server = Server(src, run.workdir, f"setup{attempt}", spans=False)
        t0 = time.perf_counter()
        server.start()
        setup_times.append(time.perf_counter() - t0)
        if attempt < 2:
            server.stop()
    try:
        untraced = _measure(run, server, None)
    finally:
        server.stop()
    _describe(run, untraced)
    if not run.trace:
        return {
            "setup_s": metric(median(setup_times), "s"),
            "wall_s": metric(min(untraced["walls"]), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "op_ms": metric(median(untraced["read"]) * 1e3, "ms"),
        }

    server = Server(src, run.workdir, "traced", spans=True)
    server.start()
    try:
        traced = _measure(run, server, untraced["rounds"])
    finally:
        dump = server.stop()
    run.note("traced pass:")
    _describe(run, traced)
    wall = sum(traced["walls"])
    spans = [tuple(s) for s in dump["spans"]]
    values = _service_values(dump, spans, traced, wall)
    values["bench.trace_overhead_s"] = wall - sum(untraced["walls"])
    values["bench.traced_wall_s"] = wall
    return layer_metrics(run, spans, wall, values)
