"""HTTP clients for the five inference stages (segment, caption, tag,
ground, define), speaking JSON over POST /v1/<stage>.

Request bodies are canonical JSON, and the SHA-256 of every body sent is
kept in an in-order call log; pipeline provenance is built from that log.
Responses are schema-checked before anything downstream touches them.

Requests go out through `http.client`. Each process keeps one idle
connection per scheme, host and port, so a page's calls and the next
page's share one connection (RFC 9112 §9); a forked child closes its
copies of the parent's connections.
"""

from __future__ import annotations

import atexit
import base64
import hashlib
import http.client
import os
import threading
import time
import urllib.request
from dataclasses import dataclass
from urllib.parse import unquote, urlsplit, urlunsplit

from . import canonical_json_bytes, parse_json

STAGES = ("segment", "caption", "tag", "ground", "define")
ATTEMPTS = 3
MAX_BODY_BYTES = 64 << 20  # bound on a body in either direction; base64 pages are far smaller

_ENV_VARS = {stage: f"TREATISE_{stage.upper()}_URL" for stage in STAGES}


class BackendError(RuntimeError):
    """Transport failure or error response; .stage names the failing stage."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"{stage}: {message}")


class WireSchemaError(BackendError):
    """A 200 response whose body violates the wire schema."""


@dataclass(frozen=True)
class BackendCall:
    stage: str
    url: str
    request_sha256: str


def resolve_endpoints(configured: dict | None = None, environ=None) -> dict:
    """Stage → URL map; TREATISE_<STAGE>_URL wins over configured values."""
    env = os.environ if environ is None else environ
    out = {}
    for stage in STAGES:
        url = env.get(_ENV_VARS[stage]) or (configured or {}).get(stage)
        if url:
            out[stage] = url
    return out


def check_endpoint(stage: str, url):
    """`url`, or ValueError unless it is http or https, with a host and a port that parses."""
    try:
        parts = urlsplit(url)
        parts.port  # raises ValueError for a port outside 0..65535
        if parts.scheme in ("http", "https") and parts.hostname:
            return url
    except (TypeError, AttributeError, ValueError):  # not a string, a bad port or IPv6 host
        pass
    raise ValueError(f"endpoint {stage} URL {url!r} is not valid")


def check_timeout(timeout):
    """`timeout`, or ValueError unless a socket and a lock can wait that long;
    NaN fails the comparison too."""
    if not 0 < timeout <= threading.TIMEOUT_MAX:
        raise ValueError(f"timeout must be above 0 and at most {threading.TIMEOUT_MAX:.0f} s")
    return timeout


# http_proxy and https_proxy as they stand at import; no_proxy is read at each call
_PROXIES = urllib.request.getproxies()
# how a kept-alive connection that the server closed while it was idle fails,
# before any reply byte; RemoteDisconnected is a ConnectionResetError
_STALE = (ConnectionResetError, BrokenPipeError)
_MAX_IDLE = 8  # idle connections kept at most, one per (scheme, host, port, proxy)
_idle: dict = {}
_idle_lock = threading.Lock()


def _close_idle() -> None:
    """Close the idle connections: at exit, and in a forked child, which
    must never write to the copies it has of the parent's sockets. A socket
    is closed, never shut down: shutdown would end the parent's connection
    too."""
    global _idle_lock
    _idle_lock = threading.Lock()  # a fork may have copied it held
    for conn in _idle.values():
        conn.close()
    _idle.clear()


atexit.register(_close_idle)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_close_idle)


def _take(key):
    with _idle_lock:
        return _idle.pop(key, None)


def _give(key, conn) -> None:
    """Keep `conn` for the next request to `key`, unless another is kept already."""
    with _idle_lock:
        if key not in _idle:
            if len(_idle) >= _MAX_IDLE:
                _idle.pop(next(iter(_idle))).close()
            _idle[key] = conn
            return
    conn.close()


def _route(parts):
    """(pool key, connection factory, request target, extra headers) of a URL:
    straight to its host, or through the proxy its scheme names unless
    `no_proxy` exempts the host. Over a proxy, http sends the absolute URL
    and https tunnels with CONNECT."""
    https = parts.scheme == "https"
    target = urlunsplit(("", "", parts.path or "/", parts.query, ""))
    host, port = parts.hostname, parts.port or (443 if https else 80)
    make = http.client.HTTPSConnection if https else http.client.HTTPConnection
    proxy = _PROXIES.get(parts.scheme)
    if not proxy or urllib.request.proxy_bypass(parts.netloc.rpartition("@")[2]):
        return (parts.scheme, host, port, None), lambda t: make(host, port, timeout=t), target, {}
    via = urlsplit(proxy if "://" in proxy else "//" + proxy)
    auth = {}
    if via.username is not None:
        token = base64.b64encode(f"{unquote(via.username)}:{unquote(via.password or '')}"
                                 .encode()).decode("ascii")
        auth = {"Proxy-Authorization": f"Basic {token}"}
    key = (parts.scheme, host, port, proxy)
    if not https:
        url = urlunsplit((parts.scheme, parts.netloc, parts.path, parts.query, ""))
        return key, lambda t: make(via.hostname, via.port, timeout=t), url, auth

    def tunnel(t):
        conn = make(via.hostname, via.port, timeout=t)
        conn.set_tunnel(host, port, headers=auth)
        return conn
    return key, tunnel, target, {}


def _post(url: str, body: bytes, timeout: float) -> tuple[int, bytes]:
    """Status of the reply to POSTing JSON `body` to `url`, and at most
    MAX_BODY_BYTES + 1 of its bytes. A redirect is a reply like any other.

    The request goes out on the idle connection to the URL's host when
    there is one. If that connection turns out to be closed before any
    byte of a reply, the request is sent again, at once, on a new one. A
    connection is kept only after a whole reply within the bound that does
    not say `Connection: close`."""
    key, make, target, headers = _route(urlsplit(url))
    headers = {"Content-Type": "application/json", **headers}
    conn = _take(key)
    try:
        if conn is not None:
            conn.timeout = timeout
            conn.sock.settimeout(timeout)
            try:
                conn.request("POST", target, body, headers)
                reply = conn.getresponse()
            except _STALE:  # not an attempt: send it again below, without backoff
                conn.close()
                conn = None
        if conn is None:
            conn = make(timeout)
            conn.request("POST", target, body, headers)
            reply = conn.getresponse()
        data = reply.read(MAX_BODY_BYTES + 1)
    except BaseException:
        if conn is not None:
            conn.close()
        raise
    if reply.isclosed() and not reply.will_close and len(data) <= MAX_BODY_BYTES:
        _give(key, conn)
    else:
        conn.close()
    return reply.status, data


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_bbox(v, where: str):
    ok = (isinstance(v, list) and len(v) == 4
          and all(isinstance(c, int) and not isinstance(c, bool) for c in v)
          and v[0] >= 0 and v[1] >= 0 and v[2] >= 1 and v[3] >= 1)
    if not ok:
        raise ValueError(f"{where}: bbox must be [x,y,w,h] with w,h >= 1")


def _validate_segment(obj):
    segs = obj.get("segments")
    if not isinstance(segs, list):
        raise ValueError("missing segments list")
    for i, s in enumerate(segs):
        if not isinstance(s, dict):
            raise ValueError(f"segments[{i}] must be an object")
        _check_bbox(s.get("bbox"), f"segments[{i}]")
        mask = s.get("mask")
        if not isinstance(mask, dict) or not isinstance(mask.get("counts"), list):
            raise ValueError(f"segments[{i}]: mask must be {{counts: [...]}}")
        counts = mask["counts"]
        if not all(isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in counts):
            raise ValueError(f"segments[{i}]: counts must be non-negative integers")
        if sum(counts) != s["bbox"][2] * s["bbox"][3]:
            raise ValueError(f"segments[{i}]: counts do not sum to the box area")


def _validate_caption(obj):
    if not isinstance(obj.get("caption"), str):
        raise ValueError("missing caption string")


def _validate_tag(obj):
    tags = obj.get("tags")
    if not isinstance(tags, list):
        raise ValueError("missing tags list")
    for i, t in enumerate(tags):
        if not (isinstance(t, dict) and isinstance(t.get("text"), str) and t["text"]):
            raise ValueError(f"tags[{i}]: text must be a non-empty string")
        if not (_is_num(t.get("confidence")) and 0.0 <= t["confidence"] <= 1.0):
            raise ValueError(f"tags[{i}]: confidence must be in [0,1]")


def _validate_ground(obj):
    dets = obj.get("detections")
    if not isinstance(dets, list):
        raise ValueError("missing detections list")
    for i, d in enumerate(dets):
        if not (isinstance(d, dict) and isinstance(d.get("text"), str) and d["text"]):
            raise ValueError(f"detections[{i}]: text must be a non-empty string")
        if not (_is_num(d.get("confidence")) and 0.0 <= d["confidence"] <= 1.0):
            raise ValueError(f"detections[{i}]: confidence must be in [0,1]")
        _check_bbox(d.get("bbox"), f"detections[{i}]")


def _validate_define(obj):
    if not isinstance(obj.get("definition"), str) or not obj["definition"]:
        raise ValueError("missing definition string")


_VALIDATORS = {
    "segment": _validate_segment,
    "caption": _validate_caption,
    "tag": _validate_tag,
    "ground": _validate_ground,
    "define": _validate_define,
}


class BackendClient:
    """Thin POST client with bounded retries and a call log.

    Transport failures and 5xx responses are retried (ATTEMPTS attempts,
    exponential backoff starting at `backoff` seconds); other error
    responses and replies over MAX_BODY_BYTES fail immediately.
    """

    def __init__(self, endpoints: dict, timeout: float = 10.0, backoff: float = 0.1, post=_post):
        self.endpoints = {stage: check_endpoint(stage, url) for stage, url in endpoints.items()}
        self.timeout = check_timeout(timeout)
        self.backoff = backoff
        self._post = post
        self._lock = threading.Lock()
        self.calls: list[BackendCall] = []

    def call(self, stage: str, payload: dict) -> dict:
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}")
        url = self.endpoints.get(stage)
        if not url:
            raise BackendError(stage, "no endpoint configured")
        body = canonical_json_bytes(payload)
        digest = hashlib.sha256(body).hexdigest()
        with self._lock:
            self.calls.append(BackendCall(stage=stage, url=url, request_sha256=digest))
        for attempt in range(ATTEMPTS):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                status, data = self._post(url, body, self.timeout)
            except (OSError, http.client.HTTPException) as exc:
                last = str(exc) or type(exc).__name__
                continue
            if status >= 500:
                last = f"HTTP {status}"
                continue
            if len(data) > MAX_BODY_BYTES:
                raise BackendError(stage, f"HTTP {status}: reply over {MAX_BODY_BYTES} bytes")
            try:
                obj = parse_json(data)
            except ValueError as exc:
                if status == 200:
                    raise WireSchemaError(stage, str(exc)) from None
                obj = None
            if status != 200:
                detail = obj.get("error") if isinstance(obj, dict) else None
                detail = detail if isinstance(detail, str) and detail else "error"
                raise BackendError(stage, f"HTTP {status}: {detail}")
            if not isinstance(obj, dict):
                raise WireSchemaError(stage, "response must be a JSON object")
            try:
                _VALIDATORS[stage](obj)
            except ValueError as exc:
                raise WireSchemaError(stage, str(exc)) from None
            return obj
        raise BackendError(stage, f"gave up after {ATTEMPTS} attempts ({last})")

    # stage wrappers

    def segment(self, image_bytes: bytes) -> dict:
        return self.call("segment", {"image_b64": _b64(image_bytes)})

    def caption(self, image_bytes: bytes) -> dict:
        return self.call("caption", {"image_b64": _b64(image_bytes)})

    def tag(self, image_bytes: bytes, vocabulary=None) -> dict:
        payload = {"image_b64": _b64(image_bytes)}
        if vocabulary is not None:
            payload["vocabulary"] = list(vocabulary)
        return self.call("tag", payload)

    def ground(self, image_bytes: bytes, tags) -> dict:
        return self.call("ground", {"image_b64": _b64(image_bytes), "tags": list(tags)})

    def define(self, prompt: str) -> dict:
        return self.call("define", {"prompt": prompt})


def _b64(image_bytes: bytes) -> str:
    return base64.b64encode(image_bytes).decode("ascii")
