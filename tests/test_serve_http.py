"""End-to-end tests of the JSON HTTP endpoint over a live server."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import (
    HttpServeClient,
    ProfileService,
    ServeHTTPServer,
    make_server,
)
from tests.conftest import BrokenKernel, build_frozen_profile


@pytest.fixture(scope="module")
def frozen_and_totals():
    return build_frozen_profile()


@pytest.fixture()
def live_server(frozen_and_totals):
    frozen, _ = frozen_and_totals
    service = ProfileService(frozen, max_batch=16, n_workers=2)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", frozen
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(5.0)


def _post(base_url, path, payload):
    request = urllib.request.Request(
        f"{base_url}{path}",
        data=json.dumps(payload).encode("utf-8") if payload is not None
        else b"not json",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


class TestRoutes:
    def test_healthz(self, live_server):
        base_url, _ = live_server
        client = HttpServeClient(base_url)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["profile_version"] == 1

    def test_classify_vectors(self, live_server):
        base_url, frozen = live_server
        client = HttpServeClient(base_url)
        answer = client.classify(frozen.features[:5])
        expected = [int(label) for label in frozen.vote(frozen.features[:5])]
        assert answer["labels"] == expected
        assert answer["version"] == 1

    def test_classify_volumes(self, live_server, frozen_and_totals):
        base_url, frozen = live_server
        _, totals = frozen_and_totals
        client = HttpServeClient(base_url)
        answer = client.classify_volumes(totals[:4])
        expected = [
            int(label)
            for label in frozen.vote(frozen.rsca_of_volumes(totals[:4]))
        ]
        assert answer["labels"] == expected

    def test_classify_caches_repeats(self, live_server):
        base_url, frozen = live_server
        client = HttpServeClient(base_url)
        client.classify(frozen.features[:3])
        answer = client.classify(frozen.features[:3])
        assert answer["cached"] == 3

    def test_clusters(self, live_server):
        base_url, frozen = live_server
        summary = HttpServeClient(base_url).clusters()
        assert summary["n_clusters"] == frozen.n_clusters
        assert len(summary["clusters"]) == frozen.n_clusters

    def test_metrics(self, live_server):
        base_url, frozen = live_server
        client = HttpServeClient(base_url)
        client.classify(frozen.features[:2])
        snapshot = client.metrics()
        assert snapshot["counters"]["requests"] >= 1
        assert snapshot["profile_version"] == 1


class TestErrorMapping:
    def test_unknown_path_404(self, live_server):
        base_url, _ = live_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base_url}/nope", timeout=10.0)
        assert excinfo.value.code == 404

    def test_invalid_json_400(self, live_server):
        base_url, _ = live_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base_url, "/classify", None)
        assert excinfo.value.code == 400

    def test_missing_keys_400(self, live_server):
        base_url, _ = live_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base_url, "/classify", {})
        assert excinfo.value.code == 400

    def test_both_keys_400(self, live_server):
        base_url, _ = live_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base_url, "/classify", {"vectors": [[0.0]],
                                          "volumes": [[1.0]]})
        assert excinfo.value.code == 400

    def test_wrong_width_400(self, live_server):
        base_url, _ = live_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base_url, "/classify", {"vectors": [[0.0, 0.1]]})
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert "columns" in body["error"]

    def test_no_profile_503(self):
        service = ProfileService()  # nothing loaded
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"http://{host}:{port}", "/classify",
                      {"vectors": [[0.0] * 12]})
            assert excinfo.value.code == 503
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(5.0)

    def test_broken_kernel_503(self):
        frozen, _ = build_frozen_profile(seed=11)
        frozen._kernel = BrokenKernel()
        service = ProfileService(frozen, n_workers=1, cache_size=0)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"http://{host}:{port}", "/classify",
                      {"vectors": frozen.features[:2].tolist()})
            assert excinfo.value.code == 503
            assert service.metrics.count("errors") == 1
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_http_client_raises_runtime_error(self, live_server):
        base_url, _ = live_server
        client = HttpServeClient(base_url)
        with pytest.raises(RuntimeError, match="HTTP 400"):
            client.classify([[0.0, 0.1]])


class TestObservability:
    def test_metrics_is_prometheus_text(self, live_server):
        base_url, frozen = live_server
        client = HttpServeClient(base_url)
        client.classify(frozen.features[:3])
        with urllib.request.urlopen(f"{base_url}/metrics",
                                    timeout=10.0) as response:
            assert response.status == 200
            content_type = response.headers["Content-Type"]
            text = response.read().decode("utf-8")
        assert content_type.startswith("text/plain")
        # Required series: qps, latency, cache, shed.
        assert "# TYPE repro_serve_qps gauge" in text
        assert "repro_serve_request_latency_seconds_bucket" in text
        assert "repro_serve_cache_hits_total" in text
        assert "repro_serve_shed_requests_total" in text
        assert "repro_serve_requests_total" in text
        # Every exposition line parses as `name[{labels}] value`.
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            float(line.rsplit(" ", 1)[1])

    def test_metrics_text_via_client(self, live_server):
        base_url, _ = live_server
        text = HttpServeClient(base_url).metrics_text()
        assert "repro_serve_requests_total" in text

    def test_unexpected_exception_returns_structured_500(self, live_server,
                                                         monkeypatch):
        base_url, _ = live_server

        def explode(self):
            raise ZeroDivisionError("instrumented failure")

        monkeypatch.setattr(ProfileService, "cluster_summaries", explode)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base_url}/clusters", timeout=10.0)
        assert excinfo.value.code == 500
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert body["error"] == "internal server error"
        assert body["error_type"] == "ZeroDivisionError"
        assert "instrumented failure" in body["detail"]
        assert body["request_id"].startswith("req-")

    def test_500_increments_error_counter(self, live_server, monkeypatch):
        base_url, _ = live_server

        def explode(self):
            raise KeyError("boom")

        monkeypatch.setattr(ProfileService, "metrics_snapshot", explode)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base_url}/metrics.json", timeout=10.0)
        assert excinfo.value.code == 500
        monkeypatch.undo()
        snapshot = HttpServeClient(base_url).metrics()
        assert snapshot["counters"]["errors"] >= 1
