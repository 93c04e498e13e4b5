import contextlib
import random
import sys
import threading
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple

import pytest

from treatise import fixtures, lexicon, mockserver, ontology
from treatise.catalog import canonical_json_bytes


def make_pgm(rows):
    """Binary P5 bytes from a list of equal-length int rows."""
    h = len(rows)
    w = len(rows[0])
    body = bytes(v for row in rows for v in row)
    return f"P5\n{w} {h}\n255\n".encode() + body


class Hit(NamedTuple):
    """One request a test server answered; `peer` is the client's (address,
    port), the same for every request on one connection."""

    method: str
    path: str
    peer: tuple
    headers: Message
    body: bytes


class _ScriptHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length") or 0))
        hit = Hit(self.command, self.path, self.client_address, self.headers, body)
        self.server.hits.append(hit)
        status, body, headers = self.server.respond(self, hit)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_CONNECT = do_POST

    def log_message(self, format, *args):
        pass


class _ScriptServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        # a client that timed out has closed the connection a late reply goes to
        if not isinstance(sys.exc_info()[1], (BrokenPipeError, ConnectionResetError)):
            super().handle_error(request, client_address)


@contextlib.contextmanager
def scripted_server(respond):
    """A local HTTP/1.1 server that answers each request with what
    `respond(handler, hit)` returns: a status, the body bytes and a dict of
    extra headers. `respond` may also sleep, or set
    `handler.close_connection` to close the connection after the reply
    without saying so. Yields the base URL and the list of Hits served."""
    httpd = _ScriptServer(("127.0.0.1", 0), _ScriptHandler)
    httpd.respond, httpd.hits = respond, []
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}", httpd.hits
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


def reply_server(status, body, headers=None):
    """A scripted_server that answers every request with `status`, the bytes
    `body` and any extra `headers`."""
    return scripted_server(lambda handler, hit: (status, body, headers or {}))


def mock_reply(handler, hit):
    """A scripted_server reply from the mock backends' rules."""
    status, obj = mockserver.mock_response(hit.path.rpartition("/")[2], hit.body)
    return status, canonical_json_bytes(obj), {}


@pytest.fixture(scope="session")
def parts_glossary():
    return lexicon.load_glossary(fixtures.read_bytes("glossary_fig4.json"))


@pytest.fixture(scope="session")
def frames_glossary():
    return lexicon.load_glossary(fixtures.read_bytes("glossary_frames.json"))


@pytest.fixture(scope="session")
def ship_ontology():
    return ontology.load_ontology(fixtures.read_bytes("ontology_fig6.json"))


def random_grid(rng: random.Random, w, h, lo=0, hi=9):
    return [[rng.randint(lo, hi) for _ in range(w)] for _ in range(h)]


def shaped_mask(rng, w, h):
    """Rows of a w x h 0/1 mask built from filled boxes with holes punched
    in them, 1-pixel spurs, and pixel pairs that touch only diagonally."""
    rows = [[0] * w for _ in range(h)]
    for _ in range(rng.randint(1, 4)):
        x0, y0 = rng.randrange(w), rng.randrange(h)
        x1, y1 = rng.randint(x0, w - 1), rng.randint(y0, h - 1)
        for y in range(y0, y1 + 1):
            rows[y][x0 : x1 + 1] = [1] * (x1 - x0 + 1)
        for _ in range(rng.randint(0, 3)):  # holes
            rows[rng.randint(y0, y1)][rng.randint(x0, x1)] = 0
    for _ in range(rng.randint(0, 3)):  # spurs: a 1-wide run in one direction
        x, y = rng.randrange(w), rng.randrange(h)
        dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        for _ in range(rng.randint(1, 4)):
            if 0 <= x < w and 0 <= y < h:
                rows[y][x] = 1
            x, y = x + dx, y + dy
    for _ in range(rng.randint(0, 3)):  # diagonal-only contacts
        if w > 1 and h > 1:
            x, y = rng.randrange(w - 1), rng.randrange(h - 1)
            flip = rng.random() < 0.5
            for dx, dy in ((0, 0), (1, 1), (1, 0), (0, 1)):
                rows[y + dy][x + dx] = int((dx == dy) != flip)
    return rows
