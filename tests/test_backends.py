import base64
import hashlib
import http.client
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import make_pgm, reply_server, scripted_server
from treatise import backends
from treatise.backends import (
    STAGES,
    BackendCall,
    BackendClient,
    BackendError,
    WireSchemaError,
    resolve_endpoints,
)
from treatise import mockserver
from treatise.catalog import canonical_json_bytes
from treatise.mockserver import (
    FALLBACK_CAPTION,
    MockBackendServer,
    load_fixture_table,
    mock_response,
)


class ScriptedPost:
    """Scripted transport: each element is an exception to raise or a
    (status, body) reply; a body that is not bytes is sent as its JSON."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = []

    def __call__(self, url, body, timeout):
        self.requests.append((url, body))
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        status, reply = item
        return status, reply if isinstance(reply, bytes) else json.dumps(reply).encode()


def client_with(script, **kw):
    post = ScriptedPost(script)
    endpoints = {s: f"http://test/v1/{s}" for s in STAGES}
    return BackendClient(endpoints, post=post, backoff=0.0, **kw), post


class TestResolveEndpoints:
    def test_env_wins(self):
        env = {"TREATISE_TAG_URL": "http://env/v1/tag"}
        out = resolve_endpoints({"tag": "http://cfg/v1/tag",
                                 "ground": "http://cfg/v1/ground"}, environ=env)
        assert out["tag"] == "http://env/v1/tag"
        assert out["ground"] == "http://cfg/v1/ground"

    def test_unset_stage_missing(self):
        assert "caption" not in resolve_endpoints({}, environ={})


class TestClient:
    def test_success_logs_call(self):
        cli, post = client_with([(200, {"caption": "x"})])
        out = cli.caption(b"img")
        assert out == {"caption": "x"}
        assert len(cli.calls) == 1
        call = cli.calls[0]
        assert isinstance(call, BackendCall) and call.stage == "caption"
        body = canonical_json_bytes(
            {"image_b64": base64.b64encode(b"img").decode()})
        assert call.request_sha256 == hashlib.sha256(body).hexdigest()
        assert post.requests[0][1] == body

    def test_retries_transport_then_succeeds(self):
        cli, post = client_with([
            ConnectionError("down"),
            ConnectionError("down"),
            (200, {"caption": "x"}),
        ])
        assert cli.caption(b"i")["caption"] == "x"
        assert len(post.requests) == 3
        assert len(cli.calls) == 1  # one logical call

    def test_retries_5xx(self):
        cli, _ = client_with([
            (503, {"error": "busy"}),
            (200, {"caption": "x"}),
        ])
        assert cli.caption(b"i")["caption"] == "x"

    def test_gives_up_after_three_attempts(self):
        cli, post = client_with([ConnectionError("down")] * 5)
        with pytest.raises(BackendError) as err:
            cli.caption(b"i")
        assert len(post.requests) == 3
        assert "gave up" in str(err.value)

    def test_4xx_fails_immediately(self):
        cli, post = client_with([(400, {"error": "bad image"})])
        with pytest.raises(BackendError) as err:
            cli.caption(b"i")
        assert len(post.requests) == 1
        assert "bad image" in str(err.value)
        assert not isinstance(err.value, WireSchemaError)

    def test_non_json_200_is_schema_error(self):
        cli, _ = client_with([(200, b"<html>")])
        with pytest.raises(WireSchemaError):
            cli.caption(b"i")

    def test_schema_violation(self):
        cli, _ = client_with([(200, {"tags": [{"text": ""}]})])
        with pytest.raises(WireSchemaError):
            cli.tag(b"i", vocabulary=["keel"])

    def test_segment_counts_must_fill_box(self):
        bad = {"segments": [{"bbox": [0, 0, 2, 2], "mask": {"counts": [0, 3]}}]}
        cli, _ = client_with([(200, bad)])
        with pytest.raises(WireSchemaError):
            cli.segment(b"i")

    def test_missing_endpoint(self):
        cli = BackendClient({}, post=ScriptedPost([]))
        with pytest.raises(BackendError):
            cli.caption(b"i")

    def test_unknown_stage(self):
        cli, _ = client_with([])
        with pytest.raises(ValueError):
            cli.call("summarize", {})

    def test_backoff_doubles(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("treatise.backends.time.sleep", sleeps.append)
        post = ScriptedPost([ConnectionError("x")] * 3)
        cli = BackendClient({"caption": "http://t/v1/caption"},
                            post=post, backoff=0.1)
        with pytest.raises(BackendError):
            cli.caption(b"i")
        assert sleeps == [0.1, 0.2]

    def test_nested_reply_is_schema_error(self):
        cli, post = client_with([(200, b"[" * 100000)])
        with pytest.raises(WireSchemaError) as err:
            cli.caption(b"i")
        assert "invalid JSON" in str(err.value)
        assert len(post.requests) == 1

    @pytest.mark.parametrize("reply", [b"[1]", b'"x"', b"<html>", b'{"error": 5}'])
    def test_error_reply_without_error_string(self, reply):
        cli, post = client_with([(400, reply)])
        with pytest.raises(BackendError) as err:
            cli.caption(b"i")
        assert str(err.value) == "caption: HTTP 400: error"
        assert not isinstance(err.value, WireSchemaError)
        assert len(post.requests) == 1

    @pytest.mark.parametrize("url", ["notaurl", "ftp://x/v1/segment",
                                     "file:///etc/hostname", "http://h:99999/v1/segment"])
    def test_bad_endpoint_url_is_refused(self, url):
        with pytest.raises(ValueError, match="endpoint segment URL"):
            BackendClient({"segment": url})

    def test_oversized_reply_is_cut_and_fails(self, monkeypatch):
        monkeypatch.setattr(backends, "MAX_BODY_BYTES", 1024)
        returned = []

        def post(url, body, timeout):
            status, data = backends._post(url, body, timeout)
            returned.append(len(data))
            return status, data

        reply = canonical_json_bytes({"caption": "x" * 2040})
        assert len(reply) > 2048
        with reply_server(200, reply) as (base, hits):
            cli = BackendClient({"caption": f"{base}/v1/caption"}, post=post)
            with pytest.raises(BackendError) as err:
                cli.caption(b"i")
        assert "reply over 1024 bytes" in str(err.value)
        assert not isinstance(err.value, WireSchemaError)
        assert returned == [1025] and len(hits) == 1


class TestMockResponses:
    def body(self, obj):
        return canonical_json_bytes(obj)

    def test_pure_function_of_body(self):
        raw = self.body({"image_b64": base64.b64encode(make_pgm([[1, 2], [3, 4]])).decode()})
        a = mock_response("segment", raw)
        b = mock_response("segment", raw)
        assert a == b

    def test_unknown_endpoint_404(self):
        status, obj = mock_response("summarize", b"{}")
        assert status == 404 and "error" in obj

    def test_bad_json_400(self):
        status, obj = mock_response("caption", b"{nope")
        assert status == 400 and "error" in obj

    def test_segment_fallback_quadrants(self):
        blob = make_pgm([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        raw = self.body({"image_b64": base64.b64encode(blob).decode()})
        status, obj = mock_response("segment", raw)
        assert status == 200
        boxes = [s["bbox"] for s in obj["segments"]]
        assert boxes == [[0, 0, 2, 2], [2, 0, 2, 2], [0, 2, 2, 2], [2, 2, 2, 2]]
        assert all(sum(s["mask"]["counts"]) == 4 for s in obj["segments"])

    def test_segment_fallback_single_when_tiny(self):
        blob = make_pgm([[1, 2, 3]])
        raw = self.body({"image_b64": base64.b64encode(blob).decode()})
        _, obj = mock_response("segment", raw)
        assert [s["bbox"] for s in obj["segments"]] == [[0, 0, 3, 1]]

    def test_caption_fallback_constant(self):
        blob = make_pgm([[9]])
        raw = self.body({"image_b64": base64.b64encode(blob).decode()})
        status, obj = mock_response("caption", raw)
        assert status == 200 and obj == {"caption": FALLBACK_CAPTION}

    def test_tag_fallback_echoes_vocabulary_prefix(self):
        blob = make_pgm([[9]])
        raw = self.body({"image_b64": base64.b64encode(blob).decode(),
                         "vocabulary": ["keel", "scarf", "heel"]})
        _, obj = mock_response("tag", raw, max_tags=2)
        assert obj == {"tags": [{"text": "keel", "confidence": 1.0},
                                {"text": "scarf", "confidence": 1.0}]}

    def test_ground_fallback_darkest_quadrant(self):
        # darkest quadrant is bottom-right
        rows = [[200, 200, 200, 200],
                [200, 200, 200, 200],
                [200, 200, 0, 0],
                [200, 200, 0, 0]]
        raw = self.body({"image_b64": base64.b64encode(make_pgm(rows)).decode(),
                         "tags": ["keel"]})
        _, obj = mock_response("ground", raw)
        assert obj["detections"] == [
            {"text": "keel", "confidence": 1.0, "bbox": [2, 2, 2, 2]}]

    def test_ground_tie_prefers_first_quadrant(self):
        rows = [[5, 5], [5, 5]]
        raw = self.body({"image_b64": base64.b64encode(make_pgm(rows)).decode(),
                         "tags": ["keel"]})
        _, obj = mock_response("ground", raw)
        assert obj["detections"][0]["bbox"] == [0, 0, 1, 1]

    def test_define_fallback_quotes_term(self):
        raw = self.body({"prompt": 'In a shipbuilding or nautical context, define "keel".'})
        _, obj = mock_response("define", raw)
        assert obj == {"definition": "the keel is a structural component of a wooden ship."}

    def test_define_last_quoted_wins(self):
        raw = self.body({"prompt": 'say "a" then define "scarf".'})
        _, obj = mock_response("define", raw)
        assert "the scarf is" in obj["definition"]

    def test_fixture_table_overrides_fallback(self):
        blob = make_pgm([[9]])
        raw = self.body({"image_b64": base64.b64encode(blob).decode()})
        digest = hashlib.sha256(raw).hexdigest()
        fixtures = {"caption": {digest: {"caption": "two sawyers at a trestle"}}}
        status, obj = mock_response("caption", raw, fixtures)
        assert status == 200 and obj["caption"] == "two sawyers at a trestle"
        # other bodies still hit the fallback
        other = self.body({"image_b64": base64.b64encode(make_pgm([[1]])).decode()})
        assert mock_response("caption", other, fixtures)[1]["caption"] == FALLBACK_CAPTION

    def test_load_fixture_table_validates(self):
        good = {"define": {"a" * 64: {"definition": "x"}}}
        assert load_fixture_table(json.dumps(good)) == good
        with pytest.raises(ValueError):
            load_fixture_table(json.dumps({"summarize": {}}))


class TestLiveServer:
    def test_roundtrip_over_http(self):
        blob = make_pgm([[1, 2], [3, 4]])
        with MockBackendServer() as srv:
            cli = BackendClient(srv.endpoints)
            out = cli.caption(blob)
            assert out == {"caption": FALLBACK_CAPTION}
            seg = cli.segment(blob)
            assert len(seg["segments"]) == 4
            d = cli.define('define "heel".')
            assert d["definition"].startswith("the heel is")

    def test_replies_are_not_held_back(self):
        # a reply sent as headers + body must not wait for a delayed ACK
        # (about 40 ms a call with Nagle's algorithm on)
        blob = make_pgm([[1, 2], [3, 4]])
        with MockBackendServer() as srv:
            cli = BackendClient(srv.endpoints)
            cli.caption(blob)  # connect outside the timed loop
            start = time.perf_counter()
            for _ in range(30):
                cli.caption(blob)
            assert time.perf_counter() - start < 0.6

    def test_stop_is_prompt(self):
        srv = MockBackendServer().start()
        start = time.perf_counter()
        srv.stop()
        assert time.perf_counter() - start < 0.25

    def test_oversized_body_gets_413_unread(self):
        # only the header claims the size: no body is sent, none is read
        with MockBackendServer() as srv:
            with socket.create_connection((srv.host, srv.port), timeout=1.0) as sock:
                sock.sendall(f"POST /v1/tag HTTP/1.1\r\nHost: {srv.host}\r\n"
                             f"Content-Length: {mockserver.MAX_BODY_BYTES + 1}\r\n\r\n"
                             .encode())
                reply = b""
                while chunk := sock.recv(4096):  # the server closes after replying
                    reply += chunk
        head = reply.split(b"\r\n\r\n", 1)[0].split(b"\r\n")
        assert head[0].startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in head[1:]  # a kept-alive client must not keep it

    def test_error_propagates_as_backend_error(self):
        with MockBackendServer() as srv:
            cli = BackendClient(srv.endpoints)
            with pytest.raises(BackendError):
                # not base64 → mock returns 400
                cli.call("caption", {"image_b64": "%%%"})

    def test_identical_requests_identical_responses(self):
        blob = make_pgm([[7, 7], [7, 7]])
        with MockBackendServer() as srv:
            cli = BackendClient(srv.endpoints)
            a = cli.ground(blob, ["keel", "heel"])
            b = cli.ground(blob, ["keel", "heel"])
            assert a == b

    def test_env_override_reaches_mock(self, monkeypatch):
        with MockBackendServer() as srv:
            monkeypatch.setenv("TREATISE_CAPTION_URL", srv.endpoints["caption"])
            eps = resolve_endpoints({})
            cli = BackendClient(eps)
            assert cli.caption(make_pgm([[1]]))["caption"] == FALLBACK_CAPTION


CAPTION = canonical_json_bytes({"caption": "x"})
ROOT = Path(__file__).resolve().parent.parent


class TestRedirects:
    def test_302_is_followed_as_get_without_body(self):
        def respond(handler, hit):
            if hit.path == "/v1/caption":
                port = handler.server.server_address[1]
                return 302, b"", {"Location": f"http://127.0.0.1:{port}/moved"}
            return 200, CAPTION, {}

        with scripted_server(respond) as (base, hits):
            cli = BackendClient({"caption": f"{base}/v1/caption"})
            assert cli.caption(b"i") == {"caption": "x"}
        assert [(h.method, h.path) for h in hits] == [("POST", "/v1/caption"), ("GET", "/moved")]
        assert hits[0].body and hits[0].headers["Content-Type"] == "application/json"
        assert hits[1].body == b""
        assert "Content-Type" not in hits[1].headers and "Content-Length" not in hits[1].headers
        assert len(cli.calls) == 1

    def test_at_most_ten_redirects_are_followed(self):
        def respond(handler, hit):  # /v1/caption -> /r1 -> /r2 -> ...
            n = int(hit.path[2:]) + 1 if hit.path.startswith("/r") else 1
            return 302, b"", {"Location": f"/r{n}"}

        with scripted_server(respond) as (base, hits):
            cli = BackendClient({"caption": f"{base}/v1/caption"}, backoff=0.0)
            with pytest.raises(BackendError, match="HTTP 302: error"):
                cli.caption(b"i")
        assert [h.path for h in hits] == ["/v1/caption"] + [f"/r{n}" for n in range(1, 11)]


# a call in a fresh interpreter, so that the proxy variables are read at import
PROXY_CALL = """
import sys
from treatise.backends import BackendClient
try:
    print(BackendClient({"caption": sys.argv[1]}, backoff=0.0).caption(b"i")["caption"])
except Exception as exc:
    print(type(exc).__name__)
"""


def _call_in_subprocess(url, **proxies):
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env.update(proxies, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", PROXY_CALL, url], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestProxies:
    def test_http_goes_through_the_proxy_unless_no_proxy(self):
        with reply_server(200, CAPTION) as (direct, direct_hits), \
                reply_server(200, canonical_json_bytes({"caption": "proxied"})) as (proxy, hits):
            url = f"{direct}/v1/caption"
            assert _call_in_subprocess(url, http_proxy=proxy) == "proxied"
            assert [(h.method, h.path) for h in hits] == [("POST", url)]  # absolute form
            assert direct_hits == []
            assert _call_in_subprocess(url, http_proxy=proxy, no_proxy="127.0.0.1") == "x"
            assert [h.path for h in direct_hits] == ["/v1/caption"] and len(hits) == 1

    def test_proxy_credentials_are_sent(self):
        with reply_server(200, CAPTION) as (proxy, hits):
            with_user = proxy.replace("http://", "http://user:p%40ss@")
            assert _call_in_subprocess("http://127.0.0.1:9/v1/caption", http_proxy=with_user) == "x"
        token = base64.b64encode(b"user:p@ss").decode()
        assert hits[0].headers["Proxy-Authorization"] == f"Basic {token}"

    def test_https_tunnels_through_the_proxy(self):
        # the proxy refuses the tunnel, so each attempt ends at CONNECT
        with reply_server(502, b"") as (proxy, hits):
            out = _call_in_subprocess("https://127.0.0.1:9/v1/caption", https_proxy=proxy)
        assert out == "BackendError"
        assert [(h.method, h.path) for h in hits] == [("CONNECT", "127.0.0.1:9")] * 3


@pytest.fixture
def sent(monkeypatch):
    """The connection object of each request that http.client sends, in order."""
    conns = []
    request = http.client.HTTPConnection.request

    def record(self, *args, **kwargs):
        conns.append(self)
        return request(self, *args, **kwargs)
    monkeypatch.setattr(http.client.HTTPConnection, "request", record)
    return conns


class TestConnections:
    def client(self, base, **kw):
        return BackendClient({"caption": f"{base}/v1/caption"}, **kw)

    def test_one_connection_serves_consecutive_calls(self, sent):
        with reply_server(200, CAPTION) as (base, hits):
            cli = self.client(base)
            for _ in range(3):
                cli.caption(b"i")
            self.client(base).caption(b"i")  # another client in the same process
        assert len(hits) == 4 and len({h.peer for h in hits}) == 1
        assert len(sent) == 4 and len(set(map(id, sent))) == 1

    def test_idle_connection_closed_by_server_is_replaced_at_once(self, monkeypatch, sent):
        sleeps = []
        monkeypatch.setattr("treatise.backends.time.sleep", sleeps.append)

        def respond(handler, hit):
            handler.close_connection = True  # closes after replying, without saying so
            return 200, CAPTION, {}

        with scripted_server(respond) as (base, hits):
            cli = self.client(base)
            assert cli.caption(b"i") == cli.caption(b"i") == {"caption": "x"}
        # the second call went out on the dead connection, then once on a new one
        assert sent[1] is sent[0] and sent[2] is not sent[0] and len(sent) == 3
        assert len(hits) == 2 and hits[0].peer != hits[1].peer
        assert sleeps == [] and len(cli.calls) == 2

    def test_no_reuse_after_connection_close(self, sent):
        with reply_server(200, CAPTION, {"Connection": "close"}) as (base, hits):
            cli = self.client(base)
            cli.caption(b"i")
            cli.caption(b"i")
        assert len(sent) == 2 and sent[1] is not sent[0]
        assert len(hits) == 2 and hits[0].peer != hits[1].peer

    def test_no_reuse_after_an_over_bound_reply(self, monkeypatch, sent):
        monkeypatch.setattr(backends, "MAX_BODY_BYTES", 1024)
        # one byte over: the whole reply is read, yet the connection is not kept
        replies = [canonical_json_bytes({"caption": "x" * 1011}), CAPTION]
        assert len(replies[0]) == 1025

        with scripted_server(lambda handler, hit: (200, replies.pop(0), {})) as (base, hits):
            cli = self.client(base)
            with pytest.raises(BackendError, match="reply over 1024 bytes"):
                cli.caption(b"i")
            assert cli.caption(b"i") == {"caption": "x"}
        assert len(sent) == 2 and sent[1] is not sent[0]
        assert hits[0].peer != hits[1].peer

    def test_no_reuse_after_an_exception(self, sent):
        def respond(handler, hit):
            if len(handler.server.hits) == 1:
                time.sleep(0.5)  # the first attempt times out
            return 200, CAPTION, {}

        with scripted_server(respond) as (base, hits):
            cli = self.client(base, timeout=0.1, backoff=0.0)
            assert cli.caption(b"i") == {"caption": "x"}  # on the second attempt
            cli.caption(b"i")
        assert len(sent) == 3 and sent[1] is not sent[0] and sent[2] is sent[1]

    def test_reused_connection_obeys_a_smaller_timeout(self, sent):
        def respond(handler, hit):
            if len(handler.server.hits) > 1:
                time.sleep(1.0)
            return 200, CAPTION, {}

        with scripted_server(respond) as (base, hits):
            self.client(base, timeout=5.0).caption(b"i")
            quick = self.client(base, timeout=0.1, backoff=0.0)
            start = time.perf_counter()
            with pytest.raises(BackendError, match="timed out"):
                quick.caption(b"i")
            assert time.perf_counter() - start < 0.8
        assert sent[1] is sent[0] and hits[1].peer == hits[0].peer
