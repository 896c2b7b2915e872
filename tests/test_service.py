"""Tests for the codec-evaluation service.

Four layers, matching the package:

* protocol — strict parsing, the job-identity rule (display labels
  excluded), lossless row payloads;
* corpus — content addressing, idempotent writes, corrupt-entry-is-miss;
* queue — dedupe, backpressure, retention;
* service — direct (in-loop) jobs and a live HTTP server, including the
  acceptance property: two clients submitting the same
  (trace digest, codecs, metric) cause exactly one encode.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.core import make_codec
from repro.engine import ExecutionConfig
from repro.metrics import compare_codecs
from repro.obs import metrics as obs_metrics
from repro.service import (
    SCHEMA_VERSION,
    EvaluationService,
    JobQueue,
    ProtocolError,
    ServiceClient,
    ServiceOverloaded,
    TraceCorpus,
    parse_request,
    request_key,
    row_from_payload,
    row_to_payload,
    run_server,
    table_text_via_service,
    trace_digest,
)
from repro.service.http import MAX_BODY_BYTES, start_http_server
from tests.conftest import make_mixed_stream

ADDRESSES, SELS = make_mixed_stream(length=120)
DIGEST = "ab" * 32


def eval_payload(**overrides):
    """A valid inline-trace request body; override fields per test."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "codecs": [{"name": "t0", "params": {"stride": 4}}, "bus-invert"],
        "metrics": ["codec-transitions"],
        "width": 32,
        "stride": 4,
        "benchmark": "mixed",
        "trace": {"addresses": list(ADDRESSES), "sels": list(SELS)},
    }
    payload.update(overrides)
    return payload


def reference_row(benchmark="mixed"):
    """The row the sequential path computes for ``eval_payload()``."""
    codecs = [make_codec("t0", 32, stride=4), make_codec("bus-invert", 32)]
    return compare_codecs(
        codecs, ADDRESSES, SELS, stride=4, benchmark=benchmark
    )


def encode_work():
    """Total encode-side work counters (both execution paths)."""
    snap = obs_metrics.snapshot("core.")
    return sum(
        entry["value"]
        for entry in snap["counters"]
        if entry["name"] in ("core.encoded_words", "core.kernel_words")
    )


class TestProtocol:
    def test_round_trip(self):
        request = parse_request(eval_payload())
        again = parse_request(request.to_payload())
        assert again == request
        assert request.addresses == tuple(ADDRESSES)
        assert request.sels == tuple(SELS)
        assert request.metrics == ("codec-transitions",)

    def test_bare_string_codec_spec(self):
        request = parse_request(eval_payload(codecs=["gray"]))
        assert request.codecs[0].name == "gray"
        assert request.codecs[0].params == ()

    @pytest.mark.parametrize(
        "mutation",
        [
            {"schema_version": 2},
            {"schema_version": None},
            {"surprise": 1},
            {"codecs": []},
            {"codecs": [{"params": {}}]},
            {"codecs": [{"name": "t0", "params": {"stride": [4]}}]},
            {"metrics": []},
            {"metrics": ["nope"]},
            {"width": 0},
            {"width": 65},
            {"width": "32"},
            {"stride": 0},
            {"benchmark": 7},
            {"trace": {"addresses": []}},
            {"trace": {"addresses": [1, -2]}},
            {"trace": {"addresses": [1, 2], "sels": [1]}},
            {"trace": {"addresses": [1, 2], "sels": [1, 2]}},
        ],
    )
    def test_rejects_bad_fields(self, mutation):
        with pytest.raises(ProtocolError):
            parse_request(eval_payload(**mutation))

    @pytest.mark.parametrize(
        "mutation, match",
        [
            ({"width": True}, "'width'"),
            ({"stride": True}, "'stride'"),
            ({"trace": {"addresses": [True, 4, 8]}}, "non-negative integers"),
            (
                {"trace": {"addresses": [1, 2], "sels": [True, 0]}},
                "'sels'",
            ),
            (
                {"width": 8, "trace": {"addresses": [4, 2**40, 2**41]}},
                r"address #1 \(0x10000000000\) does not fit a 8-bit bus",
            ),
            (
                {"width": 64, "trace": {"addresses": [0, 2**64]}},
                r"address #1 .* does not fit a 64-bit bus",
            ),
        ],
        ids=[
            "bool-width",
            "bool-stride",
            "bool-address",
            "bool-sel",
            "address-wider-than-width",
            "address-past-64-bits",
        ],
    )
    def test_admission_rejects_type_and_range_holes(self, mutation, match):
        with pytest.raises(ProtocolError, match=match) as excinfo:
            parse_request(eval_payload(**mutation))
        assert excinfo.value.http_status == 400

    def test_needs_exactly_one_trace_source(self):
        both = eval_payload(trace_digest=DIGEST)
        with pytest.raises(ProtocolError, match="exactly one"):
            parse_request(both)
        neither = eval_payload()
        del neither["trace"]
        with pytest.raises(ProtocolError, match="exactly one"):
            parse_request(neither)
        with pytest.raises(ProtocolError, match="64-hex"):
            bad = eval_payload(trace_digest="abc")
            del bad["trace"]
            parse_request(bad)

    def test_beach_is_unservable(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(eval_payload(codecs=["beach"]))
        assert excinfo.value.http_status == 422

    def test_key_excludes_display_label(self):
        payload = eval_payload(trace_digest=DIGEST, benchmark="gcc")
        del payload["trace"]
        first = parse_request(payload)
        payload["benchmark"] = "espresso"
        second = parse_request(payload)
        assert first.benchmark != second.benchmark
        assert request_key(first) == request_key(second)

    def test_key_is_canonical(self):
        payload = eval_payload(
            trace_digest=DIGEST,
            metrics=["codec-transitions", "power-sim"],
            codecs=[{"name": "t0", "params": {"stride": 4}}],
        )
        del payload["trace"]
        base = request_key(parse_request(payload))
        payload["metrics"] = ["power-sim", "codec-transitions"]
        assert request_key(parse_request(payload)) == base
        payload["width"] = 16
        assert request_key(parse_request(payload)) != base

    def test_key_requires_digest(self):
        with pytest.raises(ValueError, match="digest-resolved"):
            request_key(parse_request(eval_payload()))

    def test_row_payload_round_trip(self):
        row = reference_row()
        rebuilt = row_from_payload(
            json.loads(json.dumps(row_to_payload(row)))
        )
        assert rebuilt == row

    def test_row_payload_label_overlay(self):
        row = reference_row(benchmark="their-name")
        rebuilt = row_from_payload(row_to_payload(row), benchmark="my-name")
        assert rebuilt.benchmark == "my-name"
        assert rebuilt.results == row.results


class TestTraceCorpus:
    def test_digest_covers_content_only(self):
        assert trace_digest(ADDRESSES, SELS) == trace_digest(ADDRESSES, SELS)
        assert trace_digest(ADDRESSES, SELS) != trace_digest(ADDRESSES, None)
        assert trace_digest(ADDRESSES, SELS) != trace_digest(ADDRESSES[:-1], SELS[:-1])

    def test_memory_backed(self):
        corpus = TraceCorpus()
        digest = corpus.add(ADDRESSES, SELS)
        assert digest in corpus
        assert corpus.get(digest) == (tuple(ADDRESSES), tuple(SELS))
        assert len(corpus) == 1
        assert list(corpus.digests()) == [digest]

    def test_directory_backed(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        digest = corpus.add(ADDRESSES, None)
        assert corpus.add(ADDRESSES, None) == digest  # idempotent
        reloaded = TraceCorpus(tmp_path)  # fresh handle, same store
        assert reloaded.get(digest) == (tuple(ADDRESSES), None)
        assert len(reloaded) == 1

    def test_corrupt_entry_is_miss(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        digest = corpus.add(ADDRESSES, SELS)
        path = tmp_path / digest[:2] / f"{digest}.json"
        path.write_text("{ truncated", encoding="utf-8")
        assert corpus.get(digest) is None
        path.write_text(
            json.dumps({"digest": "0" * 64, "addresses": [1]}),
            encoding="utf-8",
        )
        assert corpus.get(digest) is None  # digest mismatch is a miss too


def make_request(digest=DIGEST, **overrides):
    payload = eval_payload(trace_digest=digest, **overrides)
    del payload["trace"]
    return parse_request(payload)


class TestJobQueue:
    def test_duplicate_submissions_share_one_job(self):
        queue = JobQueue()
        job, deduped = queue.submit(make_request(benchmark="gcc"))
        again, deduped_again = queue.submit(make_request(benchmark="jpeg"))
        assert not deduped and deduped_again
        assert again is job
        assert job.waiters == 2

    def test_backpressure_rejects_new_work_only(self):
        queue = JobQueue(max_pending=1, retry_after=7)
        queue.submit(make_request())
        with pytest.raises(ServiceOverloaded) as excinfo:
            queue.submit(make_request("cd" * 32))
        assert excinfo.value.retry_after == 7
        assert excinfo.value.pending == 1
        _, deduped = queue.submit(make_request())  # duplicate still attaches
        assert deduped

    def test_finish_unblocks_admission_and_retains(self):
        queue = JobQueue(max_pending=1, retain_done=1)
        first, _ = queue.submit(make_request())
        queue.finish(first, result={"ok": 1})
        assert first.status == "done"
        assert first.done_event.is_set()
        second, _ = queue.submit(make_request("cd" * 32))
        queue.finish(second, error="boom", error_status=422)
        assert second.status == "failed"
        assert queue.get(first.key) is None  # evicted: retain_done=1
        assert queue.get(second.key) is second

    def test_next_job_claims_fifo(self):
        async def scenario():
            queue = JobQueue()
            a, _ = queue.submit(make_request())
            b, _ = queue.submit(make_request("cd" * 32))
            assert await queue.next_job() is a
            assert a.status == "running"
            assert await queue.next_job() is b

        asyncio.run(scenario())


def run_on_service(scenario, **service_kwargs):
    """Run an async scenario against a started in-loop service."""
    service_kwargs.setdefault("config", ExecutionConfig(jobs=1))

    async def runner():
        service = EvaluationService(**service_kwargs)
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.stop()

    return asyncio.run(runner())


async def finish_job(service, payload):
    status, response = service.submit(payload)
    assert status == 202
    job = service.queue.get(response["job_id"])
    await asyncio.wait_for(job.done_event.wait(), timeout=60)
    return job, response


class TestEvaluationService:
    def test_inline_job_matches_sequential_path(self):
        async def scenario(service):
            job, _ = await finish_job(service, eval_payload())
            assert job.status == "done"
            return job.result

        result = run_on_service(scenario)
        assert result["row"] == row_to_payload(reference_row())
        assert result["trace_digest"] == trace_digest(ADDRESSES, SELS)

    def test_digest_and_inline_submissions_coalesce(self):
        async def scenario(service):
            job, first = await finish_job(service, eval_payload())
            by_digest = eval_payload(
                trace_digest=job.request.trace_digest, benchmark="other-name"
            )
            del by_digest["trace"]
            before = encode_work()
            status, second = service.submit(by_digest)
            assert status == 202
            assert second["deduped"] is True
            assert second["job_id"] == first["job_id"]
            assert second["status"] == "done"  # served from retention
            assert encode_work() == before  # zero new encode work
            return second["result"]

        result = run_on_service(scenario)
        # the duplicate gets the original's payload; its own label overlays
        assert (
            row_from_payload(result["row"], benchmark="other-name")
            == reference_row(benchmark="other-name")
        )

    def test_concurrent_duplicates_one_encode(self):
        """The acceptance property: same (digest, codecs, metric) from two
        clients while in flight → one computation, two waiters."""

        async def scenario(service):
            admitted_before = obs_metrics.counter("service.jobs_admitted").value
            work_before = encode_work()
            status_a, a = service.submit(eval_payload(benchmark="client-a"))
            status_b, b = service.submit(eval_payload(benchmark="client-b"))
            assert status_a == status_b == 202
            assert a["job_id"] == b["job_id"]
            assert not a["deduped"] and b["deduped"]
            job = service.queue.get(a["job_id"])
            assert job.waiters == 2
            await asyncio.wait_for(job.done_event.wait(), timeout=60)
            single = encode_work() - work_before
            admitted = (
                obs_metrics.counter("service.jobs_admitted").value
                - admitted_before
            )
            return single, admitted, job.result

        single_job_work, admitted, result = run_on_service(scenario)
        assert admitted == 1
        assert result["row"] == row_to_payload(reference_row("client-a"))
        # the coalesced pair did exactly the work of one job: replaying the
        # same job alone costs the same counters
        solo = run_on_service(
            lambda service: finish_job(service, eval_payload())
        )
        assert solo[0].status == "done"

    def test_unknown_digest_is_404(self):
        def scenario_sync(service):
            with pytest.raises(ProtocolError) as excinfo:
                payload = eval_payload(trace_digest="ee" * 32)
                del payload["trace"]
                service.submit(payload)
            assert excinfo.value.http_status == 404

        async def scenario(service):
            scenario_sync(service)

        run_on_service(scenario)

    def test_digest_reference_must_fit_its_width(self):
        # Uploads are checked only against 64 bits; the width comes later.
        async def scenario(service):
            uploaded = service.add_trace(
                {
                    "schema_version": SCHEMA_VERSION,
                    "trace": {"addresses": [4, 8, 1 << 40]},
                }
            )
            payload = eval_payload(trace_digest=uploaded["trace_digest"], width=8)
            del payload["trace"]
            with pytest.raises(ProtocolError, match="0x10000000000") as excinfo:
                service.submit(payload)
            assert excinfo.value.http_status == 400
            payload["width"] = 41
            status, _ = service.submit(payload)
            assert status == 202

        run_on_service(scenario)

    def test_unknown_codec_and_uncircuited_power_are_422(self):
        async def scenario(service):
            with pytest.raises(ProtocolError) as excinfo:
                service.submit(eval_payload(codecs=["not-a-codec"]))
            assert excinfo.value.http_status == 422
            with pytest.raises(ProtocolError) as excinfo:
                service.submit(
                    eval_payload(codecs=["gray"], metrics=["power-sim"])
                )
            assert excinfo.value.http_status == 422
            assert "circuit" in str(excinfo.value)

        run_on_service(scenario)

    def test_unbuildable_codec_is_422(self):
        # pbi's four partitions cannot split a 3-line bus.
        async def scenario(service):
            with pytest.raises(ProtocolError, match="cannot build") as excinfo:
                service.submit(
                    eval_payload(
                        codecs=["pbi"],
                        width=3,
                        trace={"addresses": [1, 4, 7], "sels": [1, 1, 0]},
                    )
                )
            assert excinfo.value.http_status == 422

        run_on_service(scenario)

    def test_power_metric_job(self):
        async def scenario(service):
            job, _ = await finish_job(
                service,
                eval_payload(
                    codecs=["binary", "t0"], metrics=["power-sim"]
                ),
            )
            assert job.status == "done"
            return job.result

        result = run_on_service(scenario)
        assert set(result["power"]) == {"binary", "t0"}
        for payload in result["power"].values():
            assert payload["encoder"]["cycles"] == len(ADDRESSES)
            assert payload["decoder"]["cycles"] == len(ADDRESSES)

    def test_compute_failure_fails_the_job(self, monkeypatch):
        async def scenario(service):
            def explode(request):
                raise RuntimeError("engine caught fire")

            monkeypatch.setattr(service, "_compute", explode)
            job, _ = await finish_job(service, eval_payload())
            assert job.status == "failed"
            assert "engine caught fire" in job.error
            payload = service.job_payload(job.key)
            assert payload["status"] == "failed"
            with pytest.raises(ProtocolError, match="no manifest"):
                service.manifest(job.key)

        run_on_service(scenario)

    def test_manifest_records_provenance(self):
        async def scenario(service):
            job, _ = await finish_job(service, eval_payload())
            return job, service.manifest(job.key)

        job, manifest = run_on_service(scenario)
        assert manifest["trace_digest"] == job.request.trace_digest
        assert manifest["codecs"] == ["t0", "bus-invert"]
        # 2 codecs + the binary reference = 3 computed cells
        assert manifest["engine"]["cells"] == 3
        import hashlib

        expected = hashlib.sha256(
            json.dumps(job.result, sort_keys=True).encode("utf-8")
        ).hexdigest()
        assert manifest["result_sha256"] == expected

    def test_http_routing_and_backpressure_headers(self):
        # No worker started: admitted jobs stay queued, so the second
        # distinct submission deterministically trips the high-water mark.
        service = EvaluationService(
            config=ExecutionConfig(jobs=1), max_pending=1
        )

        async def scenario():
            status, payload, _ = await service.handle("GET", "/v1/healthz", b"")
            assert status == 200 and payload["status"] == "ok"
            status, payload, _ = await service.handle("GET", "/v1/codecs", b"")
            assert "beach" not in payload["codecs"]
            assert "t0" in payload["codecs"]
            status, payload, _ = await service.handle(
                "POST", "/v1/jobs", b"not json"
            )
            assert status == 400
            status, payload, _ = await service.handle("GET", "/v1/nope", b"")
            assert status == 404
            status, payload, _ = await service.handle("POST", "/v1/nope", b"")
            assert status == 405

            body = json.dumps(eval_payload()).encode()
            status, payload, _ = await service.handle("POST", "/v1/jobs", body)
            assert status == 202
            other = eval_payload(codecs=["gray"])
            status, payload, headers = await service.handle(
                "POST", "/v1/jobs", json.dumps(other).encode()
            )
            assert status == 429
            assert headers["Retry-After"] == str(service.queue.retry_after)
            # a duplicate of the queued job is still accepted
            status, payload, _ = await service.handle("POST", "/v1/jobs", body)
            assert status == 202 and payload["deduped"] is True

        asyncio.run(scenario())


def _raw_exchange(port, request):
    """Send raw request bytes and read the whole response."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(4096):
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.mark.parametrize(
    "length, status",
    [
        (str(MAX_BODY_BYTES + 1), b"413 Payload Too Large"),
        ("lots", b"400 Bad Request"),
    ],
)
def test_http_rejects_bad_content_length_before_reading(length, status):
    """An oversize declared body is answered 413 without waiting for it (no
    body is sent); a malformed length stays a 400.  The handler never runs."""

    async def handler(method, target, body):
        raise AssertionError("a rejected request reached the handler")

    async def scenario():
        server = await start_http_server(handler, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        request = (
            f"POST /v1/jobs HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        ).encode("ascii")
        try:
            return await asyncio.get_running_loop().run_in_executor(
                None, _raw_exchange, port, request
            )
        finally:
            server.close()
            await server.wait_closed()

    response = asyncio.run(scenario())
    assert response.split(b"\r\n", 1)[0] == b"HTTP/1.1 " + status
    assert b'"error"' in response


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture
def live_client():
    port = _free_port()

    def serve():
        asyncio.run(
            run_server(
                host="127.0.0.1",
                port=port,
                config=ExecutionConfig(jobs=1),
            )
        )

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=15)
    deadline = time.monotonic() + 15
    while True:
        try:
            client.health()
            break
        except OSError:
            if time.monotonic() > deadline:
                raise RuntimeError("service never came up")
            time.sleep(0.05)
    yield client
    client.shutdown()
    thread.join(timeout=15)
    assert not thread.is_alive()


class TestLiveService:
    def test_full_protocol_over_http(self, live_client):
        client = live_client
        assert client.health()["status"] == "ok"

        digest = client.submit_trace(ADDRESSES, SELS)
        assert digest == trace_digest(ADDRESSES, SELS)
        info = client._expect("GET", f"/v1/traces/{digest}")
        assert info["length"] == len(ADDRESSES)
        missing = client.request("GET", f"/v1/traces/{'0' * 64}")
        assert missing[0] == 404

        payload = eval_payload(trace_digest=digest)
        del payload["trace"]
        finished = client.evaluate(payload)
        assert finished["status"] == "done"
        row = row_from_payload(finished["result"]["row"])
        assert row == reference_row()

        manifest = client.manifest(finished["job_id"])
        assert manifest["trace_digest"] == digest

        snapshot = client.metrics()["metrics"]
        names = {entry["name"] for entry in snapshot["counters"]}
        assert "service.jobs_admitted" in names

    def test_table_via_service_matches_local_render(self, live_client):
        from repro.experiments import TABLE_BUILDERS, compare_with_paper

        served = table_text_via_service(live_client, 2, length=200)
        table = TABLE_BUILDERS[2](200)
        local = f"{table.render()}\n\n{compare_with_paper(2, table)}\n"
        assert served == local
