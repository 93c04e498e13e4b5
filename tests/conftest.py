import contextlib
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from treatise import fixtures, lexicon, ontology


def make_pgm(rows):
    """Binary P5 bytes from a list of equal-length int rows."""
    h = len(rows)
    w = len(rows[0])
    body = bytes(v for row in rows for v in row)
    return f"P5\n{w} {h}\n255\n".encode() + body


class _ReplyHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self.server.hits.append(self.path)
        status, body, headers = self.server.reply
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


@contextlib.contextmanager
def reply_server(status, body, headers=None):
    """A local HTTP server that answers every POST with `status`, the bytes
    `body` and any extra `headers`; yields its base URL and the list of
    request paths it served."""
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _ReplyHandler)
    httpd.reply, httpd.hits = (status, body, headers or {}), []
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}", httpd.hits
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


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
