"""Deterministic stand-in for the five inference backends.

Every response is a pure function of (endpoint, SHA-256 of the raw request
body): a fixture table maps body digests to canned responses, and anything
not in the table falls back to fixed rules (quadrant boxes, a constant
caption, vocabulary echo, darkest-quadrant grounding, a template
definition). Identical requests therefore always produce identical bytes,
which is what makes pipeline runs replayable in tests.
"""

from __future__ import annotations

import base64
import hashlib
import re
import socket
import threading
from contextlib import suppress
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from . import parse_json
from .backends import MAX_BODY_BYTES, STAGES
from .catalog import canonical_json_bytes
from .raster import PgmError, decode_pgm

FALLBACK_CAPTION = "a page from a treatise"
_QUOTED = re.compile(r'"([^"]*)"')


def _quadrants(w: int, h: int):
    """Four equal-split boxes (TL, TR, BL, BR), or the full frame when a
    2x2 split is impossible."""
    if w < 2 or h < 2:
        return [(0, 0, w, h)]
    qw, qh = w // 2, h // 2
    return [
        (0, 0, qw, qh),
        (qw, 0, w - qw, qh),
        (0, qh, qw, h - qh),
        (qw, qh, w - qw, h - qh),
    ]


def _decode_image(payload: dict):
    b64 = payload.get("image_b64")
    if not isinstance(b64, str):
        raise ValueError("image_b64 must be a base64 string")
    try:
        raw = base64.b64decode(b64, validate=True)
    except (ValueError, TypeError):
        raise ValueError("image_b64 is not valid base64") from None
    return raw


def _decode_grid(payload: dict):
    raw = _decode_image(payload)
    try:
        return decode_pgm(raw)
    except PgmError as exc:
        raise ValueError(f"image is not a readable graymap: {exc}") from None


def _darkest_quadrant(grid):
    px = grid.pixels.astype(np.int64)
    best = None
    best_sum = best_n = 0
    for box in _quadrants(grid.width, grid.height):
        x, y, w, h = box
        s = int(px[y:y + h, x:x + w].sum())
        n = w * h
        # compare mean intensities s/n exactly; first quadrant wins ties
        if best is None or s * best_n < best_sum * n:
            best, best_sum, best_n = box, s, n
    return best


def _fallback_segment(payload: dict) -> dict:
    grid = _decode_grid(payload)
    segments = []
    for x, y, w, h in _quadrants(grid.width, grid.height):
        segments.append({"bbox": [x, y, w, h], "mask": {"counts": [0, w * h]}})
    return {"segments": segments}


def _fallback_caption(payload: dict) -> dict:
    _decode_image(payload)
    return {"caption": FALLBACK_CAPTION}


def _fallback_tag(payload: dict, max_tags: int) -> dict:
    _decode_image(payload)
    vocab = payload.get("vocabulary", [])
    if not isinstance(vocab, list) or not all(isinstance(t, str) for t in vocab):
        raise ValueError("vocabulary must be a list of strings")
    return {"tags": [{"text": t, "confidence": 1.0} for t in vocab[:max_tags]]}


def _fallback_ground(payload: dict) -> dict:
    grid = _decode_grid(payload)
    tags = payload.get("tags")
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        raise ValueError("tags must be a list of strings")
    box = list(_darkest_quadrant(grid))
    return {"detections": [{"text": t, "confidence": 1.0, "bbox": box} for t in tags]}


def _fallback_define(payload: dict) -> dict:
    prompt = payload.get("prompt")
    if not isinstance(prompt, str) or not prompt:
        raise ValueError("prompt must be a non-empty string")
    quoted = _QUOTED.findall(prompt)
    term = quoted[-1] if quoted else prompt
    return {"definition": f"the {term} is a structural component of a wooden ship."}


def mock_response(endpoint, raw_body: bytes, fixtures=None, max_tags: int = 32):
    """(status, body object) for one request; pure in all arguments."""
    if endpoint not in STAGES:
        return 404, {"error": f"unknown endpoint {endpoint!r}"}
    digest = hashlib.sha256(raw_body).hexdigest()
    canned = (fixtures or {}).get(endpoint, {}).get(digest)
    if canned is not None:
        return 200, canned
    try:
        payload = parse_json(raw_body)
    except ValueError:
        return 400, {"error": "request body is not JSON"}
    if not isinstance(payload, dict):
        return 400, {"error": "request body must be a JSON object"}
    try:
        if endpoint == "segment":
            return 200, _fallback_segment(payload)
        if endpoint == "caption":
            return 200, _fallback_caption(payload)
        if endpoint == "tag":
            return 200, _fallback_tag(payload, max_tags)
        if endpoint == "ground":
            return 200, _fallback_ground(payload)
        return 200, _fallback_define(payload)
    except ValueError as exc:
        return 400, {"error": str(exc)}


def load_fixture_table(data: bytes | str) -> dict:
    """{endpoint: {request-sha256: response object}} from JSON."""
    doc = parse_json(data)
    if not isinstance(doc, dict):
        raise ValueError("fixture table must be a JSON object")
    for endpoint, table in doc.items():
        if endpoint not in STAGES or not isinstance(table, dict):
            raise ValueError(f"fixture table key {endpoint!r} must be a stage with a digest map")
    return doc


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # headers and body go out as two sends; with Nagle's algorithm on, the
    # body waits for the client's delayed ACK (about 40 ms per reply)
    disable_nagle_algorithm = True

    def _reply(self, status: int, obj, close: bool = False) -> None:
        data = canonical_json_bytes(obj)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close:  # send_header sets close_connection too
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self):
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        if length > MAX_BODY_BYTES:
            # the unread body still follows: say so and close (RFC 9112 §9.6)
            self._reply(413, {"error": f"request body over {MAX_BODY_BYTES} bytes"}, close=True)
            return
        raw = self.rfile.read(length) if length > 0 else b""
        endpoint = self.path[4:] if self.path.startswith("/v1/") else None
        status, obj = mock_response(
            endpoint, raw, self.server.mock_fixtures, self.server.mock_max_tags
        )
        self._reply(status, obj)

    def do_GET(self):
        self._reply(404, {"error": "POST JSON to /v1/<stage>"})

    def log_message(self, format, *args):
        pass


class _Server(ThreadingHTTPServer):
    """Ends the connections a client keeps alive when it closes, so that
    closing joins every handler thread."""

    daemon_threads = False  # server_close joins them

    def __init__(self, address):
        super().__init__(address, _Handler)
        self._open: set = set()  # request sockets not yet shut down

    def process_request(self, request, client_address):
        self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        # a handler waiting for the next request reads end of file and returns
        for request in self._open.copy():
            with suppress(OSError):
                request.shutdown(socket.SHUT_RDWR)
        super().server_close()


class MockBackendServer:
    """Threaded HTTP server; port=0 binds an ephemeral port."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 fixtures: dict | None = None, max_tags: int = 32):
        self._httpd = _Server((host, port))
        self._httpd.mock_fixtures = fixtures or {}
        self._httpd.mock_max_tags = max_tags
        self._thread = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def endpoints(self) -> dict:
        base = f"http://{self.host}:{self.port}/v1"
        return {stage: f"{base}/{stage}" for stage in STAGES}

    def start(self):
        # stop() waits for the serving loop's next poll
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self):
        try:
            self._httpd.serve_forever()
        finally:
            self._httpd.server_close()

    def stop(self):
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
