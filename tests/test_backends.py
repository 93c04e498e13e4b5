import base64
import hashlib
import http.client
import json
import os
import socket
import struct
import subprocess
import sys
import threading
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


# one 200 reply per message of the wire-schema check
WIRE_SCHEMA_VIOLATIONS = [
    ("segment", {}, "missing segments list"),
    ("segment", {"segments": [5]}, "segments[0] must be an object"),
    ("segment", {"segments": [{"bbox": [0, 0, 0, 1], "mask": {"counts": []}}]},
     "segments[0]: bbox must be [x,y,w,h] with w,h >= 1"),
    ("segment", {"segments": [{"bbox": [0, 0, 1, 1], "mask": [1]}]},
     "segments[0]: mask must be {counts: [...]}"),
    ("segment", {"segments": [{"bbox": [0, 0, 1, 1], "mask": {"counts": [-1, 2]}}]},
     "segments[0]: counts must be non-negative integers"),
    ("segment", {"segments": [{"bbox": [0, 0, 2, 2], "mask": {"counts": [0, 3]}}]},
     "segments[0]: counts do not sum to the box area"),
    ("caption", {"caption": 5}, "missing caption string"),
    ("caption", [1], "response must be a JSON object"),
    ("tag", {"tags": {}}, "missing tags list"),
    ("tag", {"tags": [{"text": "", "confidence": 1}]}, "tags[0]: text must be a non-empty string"),
    ("tag", {"tags": [{"text": "keel", "confidence": 1.5}]},
     "tags[0]: confidence must be in [0,1]"),
    ("ground", {"detections": None}, "missing detections list"),
    ("ground", {"detections": [{"text": 1}]}, "detections[0]: text must be a non-empty string"),
    ("ground", {"detections": [{"text": "keel", "confidence": True, "bbox": [0, 0, 1, 1]}]},
     "detections[0]: confidence must be in [0,1]"),
    ("ground", {"detections": [{"text": "keel", "confidence": 0.5, "bbox": [0, 0, 1]}]},
     "detections[0]: bbox must be [x,y,w,h] with w,h >= 1"),
    ("define", {"definition": ""}, "missing definition string"),
]


@pytest.mark.parametrize("stage,reply,message", WIRE_SCHEMA_VIOLATIONS,
                         ids=[m for _, _, m in WIRE_SCHEMA_VIOLATIONS])
def test_a_reply_off_the_wire_schema_fails_after_one_request(stage, reply, message):
    cli, post = client_with([(200, reply)])
    with pytest.raises(WireSchemaError) as err:
        cli.call(stage, {})
    assert str(err.value) == f"{stage}: {message}"
    assert len(post.requests) == 1


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
        vocabulary = [f"term{i:02d}" for i in range(40)]
        raw = self.body({"image_b64": base64.b64encode(blob).decode(),
                         "vocabulary": vocabulary})
        _, obj = mock_response("tag", raw)
        assert obj == {"tags": [{"text": t, "confidence": 1.0} for t in vocabulary[:32]]}

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

    def test_a_second_start_raises_and_stop_still_returns(self):
        # two serving loops on one socket would leave stop() waiting forever
        srv = MockBackendServer().start()
        try:
            with pytest.raises(RuntimeError, match="already serving"):
                srv.start()
            with pytest.raises(RuntimeError, match="already serving"):
                with srv:
                    pass
            blob = make_pgm([[1, 2], [3, 4]])
            assert BackendClient(srv.endpoints).caption(blob) == {"caption": FALLBACK_CAPTION}
        finally:  # in a thread, so a stop that waits forever fails the test
            stopper = threading.Thread(target=srv.stop, daemon=True)
            stopper.start()
            stopper.join(timeout=5)
        assert not stopper.is_alive()

    def test_stop_of_a_server_never_started_returns_and_frees_the_port(self):
        srv = MockBackendServer()
        port = srv.port
        stopper = threading.Thread(target=srv.stop, daemon=True)  # a stop that waits fails
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()
        with MockBackendServer(port=port) as again:
            assert again.port == port

    def test_a_stop_interrupted_in_its_shutdown_still_ends_kept_alive_connections(self):
        # a second Ctrl-C in mock-serve lands while stop() waits for the loop
        before = set(threading.enumerate())
        srv = MockBackendServer().start()
        conn = http.client.HTTPConnection(srv.host, srv.port, timeout=5)
        conn.request("POST", "/v1/caption", body=b"{}")
        reply = conn.getresponse()
        reply.read()
        assert reply.will_close is False
        shutdown = srv._httpd.shutdown

        def interrupted():
            srv._httpd.shutdown = shutdown
            raise KeyboardInterrupt

        srv._httpd.shutdown = interrupted
        try:
            with pytest.raises(KeyboardInterrupt):
                srv.stop()
            assert conn.sock.recv(1) == b""  # the handler was not left in readline
        finally:
            conn.close()
            srv.stop()
        assert set(threading.enumerate()) <= before

    def test_stop_ends_the_connections_a_client_keeps_alive(self):
        # each cycle leaves an idle kept-alive connection in the client; its
        # handler thread must not outlive the server
        blob = make_pgm([[1, 2], [3, 4]])
        before = set(threading.enumerate())  # other servers' threads may end meanwhile
        for _ in range(5):
            with MockBackendServer() as srv:
                assert BackendClient(srv.endpoints).caption(blob) == {"caption": FALLBACK_CAPTION}
        assert set(threading.enumerate()) <= before

    def test_a_client_that_drops_mid_request_prints_nothing(self, capfd):
        # the body is cut short by a reset: the handler's read fails, quietly
        with MockBackendServer() as srv:
            with socket.create_connection((srv.host, srv.port), timeout=1.0) as sock:
                sock.sendall(f"POST /v1/caption HTTP/1.1\r\nHost: {srv.host}\r\n"
                             "Content-Length: 100\r\n\r\n{".encode())
                time.sleep(0.1)  # the handler is waiting for the rest of the body
                # linger 0: close sends a reset, not a FIN
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        # stop() has joined the handler thread
        assert capfd.readouterr().err == ""

    def test_a_handler_that_fails_otherwise_still_prints_its_traceback(self, capfd,
                                                                        monkeypatch):
        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(mockserver, "mock_response", boom)
        with MockBackendServer() as srv:
            with socket.create_connection((srv.host, srv.port), timeout=1.0) as sock:
                sock.sendall(f"POST /v1/caption HTTP/1.1\r\nHost: {srv.host}\r\n"
                             "Content-Length: 2\r\n\r\n{}".encode())
                assert sock.recv(4096) == b""  # closed without a reply
        err = capfd.readouterr().err
        assert "Traceback" in err and "RuntimeError: boom" in err

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
    @pytest.mark.parametrize("status", [301, 302, 303])
    def test_a_redirect_is_an_error_reply_after_one_post(self, status):
        with reply_server(status, b"", {"Location": "/v1/moved"}) as (base, hits):
            cli = BackendClient({"caption": f"{base}/v1/caption"}, backoff=0.0)
            with pytest.raises(BackendError, match=f"HTTP {status}: error"):
                cli.caption(b"i")
        assert [(h.method, h.path) for h in hits] == [("POST", "/v1/caption")]
        assert len(cli.calls) == 1

    def test_the_host_a_redirect_names_receives_nothing(self):
        with reply_server(200, CAPTION) as (other, other_hits), \
                reply_server(302, b"", {"Location": f"{other}/v1/caption"}) as (base, hits):
            cli = BackendClient({"caption": f"{base}/v1/caption"}, backoff=0.0)
            with pytest.raises(BackendError, match="HTTP 302: error"):
                cli.caption(b"i")
        assert len(hits) == 1 and other_hits == []


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
