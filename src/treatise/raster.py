"""Grayscale raster primitives: PGM decoding, gradients, markers, watershed,
segment extraction, and run-length masks.

Everything here is pure and deterministic. Pixels live in (h, w) uint8 numpy
arrays; coordinates are (x, y) with x = column, y = row, origin top-left.
Connectivity is 4-connected throughout (regions, plateaus, contours).

The flooding routines are array code with no loop per pixel: plateaus are
labelled by union-find over row runs, rooted at each plateau's first run in
row-major order; the h-minima reconstruction runs raster and anti-raster
scans of int16 levels to the fixpoint of the geodesic erosion, one
anti-diagonal of a skewed frame per step and about sqrt(h + w) bands of the
frame's rows side by side, three in-place ufuncs per step;
the gradient is an integer Sobel; and the watershed runs each synchronous
wave as one array step over its front, deduplicated without sorting, on a
map of labels minus one (-1 not yet flooded, -2 line or frame), so that one
gather of the front's neighbours gives the largest basin as its max and the
smallest as its min read as uint32. Segment extraction sorts the label
map's row runs and boundary pixels by label and is array code but for one
Moore walk per region, which steps through a table indexed by each boundary
pixel's 8-bit neighbour code and backtrack direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

# 8-neighborhood in clockwise screen order (y grows downward), starting north
N8_CLOCKWISE = ((0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1))
# Moore walk: _SCANS[d] scans clockwise past a backtrack in direction d; after
# a step in direction j, the background pixel scanned just before it becomes
# the backtrack, in direction _BACKTRACK_AFTER[j] of the new pixel
_SCANS = tuple(tuple(j % 8 for j in range(d + 1, d + 9)) for d in range(8))
_BACKTRACK_AFTER = (6, 6, 0, 0, 2, 2, 4, 4)
# _FIRST[code * 8 + d]: the first direction of _SCANS[d] whose bit is set in
# the neighbour code (bit j: the neighbour in direction j is in the region);
# code 0, an isolated pixel, is never looked up, since every pixel a walk
# steps onto has the pixel it came from as a neighbour
_FIRST = bytes(next((j for j in _SCANS[d] if code >> j & 1), 0)
               for code in range(256) for d in range(8))


class PgmError(ValueError):
    """Base class for PGM parse failures."""


class PgmHeaderError(PgmError):
    """Header is not a valid binary P5 preamble."""


class PgmMaxvalError(PgmError):
    """Declared maxval is outside the supported 8-bit range, or a pixel
    exceeds it."""


class PgmTruncatedError(PgmError):
    """Pixel payload is shorter than width * height."""


class RleError(ValueError):
    """Run-length counts are inconsistent with the mask size."""


@dataclass(frozen=True)
class ImageGrid:
    """2-D grayscale image. `pixels` is a read-only (h, w) uint8 array."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels, dtype=np.uint8)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("image must be a 2-D array with positive dimensions")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @classmethod
    def from_list(cls, width: int, height: int, values) -> "ImageGrid":
        data = np.asarray(list(values), dtype=np.int64)
        if data.size != width * height:
            raise ValueError("data length must equal width * height")
        if data.size and (data.min() < 0 or data.max() > 255):
            raise ValueError("intensities must be 8-bit")
        return cls(data.astype(np.uint8).reshape(height, width))

    def tolist(self) -> list[int]:
        return self.pixels.ravel().tolist()

    def __eq__(self, other) -> bool:
        return isinstance(other, ImageGrid) and np.array_equal(self.pixels, other.pixels)


@dataclass(frozen=True)
class MarkerMap:
    """Seed regions for the watershed: 0 = unmarked, 1..K = marker ids."""

    labels: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int32))
        if arr.ndim != 2:
            raise ValueError("marker labels must be 2-D")
        if arr.size and arr.min() < 0:
            raise ValueError("marker labels must be non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def count(self) -> int:
        m = int(self.labels.max()) if self.labels.size else 0
        return m


@dataclass(frozen=True)
class SegmentMap:
    """Watershed result: 0 = line pixel, k >= 1 = pixel of region k."""

    labels: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int32))
        if arr.ndim != 2:
            raise ValueError("segment labels must be 2-D")
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned pixel box: top-left (x, y), extent (w, h), w/h >= 1."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValueError("box extent must be at least 1x1")
        if self.x < 0 or self.y < 0:
            raise ValueError("box origin must be non-negative")

    def fits(self, width: int, height: int) -> bool:
        return self.x + self.w <= width and self.y + self.h <= height

    def as_list(self) -> list[int]:
        return [self.x, self.y, self.w, self.h]


@dataclass(frozen=True)
class MaskRLE:
    """Row-major run-length mask. Counts alternate zero-run / one-run,
    starting with the zero-run (which may be 0). Counts are a tuple of
    Python ints; nothing coerces them."""

    width: int
    height: int
    counts: tuple[int, ...]


@dataclass(frozen=True)
class Segment:
    """One detected region: tight box, bbox-local mask, area, and the ordered
    boundary contour in image coordinates, a tuple of (x, y) tuples of Python
    ints; nothing coerces it."""

    id: int
    bbox: BoundingBox
    mask: MaskRLE
    area: int
    contour: tuple[tuple[int, int], ...] = ()


# ---------------------------------------------------------------------------
# PGM (binary P5)

def _read_pgm_tokens(data: bytes, n: int) -> tuple[list[bytes], int]:
    """Read n whitespace-separated header tokens, skipping # comments.
    Returns the tokens and the offset just past the single whitespace byte
    that terminates the last one."""
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < n:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i] not in (0x0A, 0x0D):
                i += 1
            continue
        start = i
        while i < len(data) and not data[i : i + 1].isspace():
            i += 1
        if i == start:
            raise PgmHeaderError("unexpected end of header")
        tokens.append(data[start:i])
        if len(tokens) == n:
            if i >= len(data) or not data[i : i + 1].isspace():
                raise PgmHeaderError("missing whitespace after maxval")
            i += 1  # exactly one whitespace byte before the payload
    return tokens, i


def decode_pgm(data: bytes) -> ImageGrid:
    """Decode a binary (P5) portable graymap with maxval <= 255."""
    if not data.startswith(b"P5"):
        raise PgmHeaderError("not a binary P5 graymap")
    tokens, offset = _read_pgm_tokens(data[2:], 3)
    offset += 2
    if not all(t.isdigit() for t in tokens):
        raise PgmHeaderError("non-numeric header field")
    width, height, maxval = (int(t) for t in tokens)
    if width < 1 or height < 1:
        raise PgmHeaderError("dimensions must be positive")
    if maxval > 255 or maxval < 1:
        raise PgmMaxvalError(f"maxval {maxval} not in 1..255")
    payload = data[offset : offset + width * height]
    if len(payload) < width * height:
        raise PgmTruncatedError(
            f"expected {width * height} pixel bytes, found {len(payload)}"
        )
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    if maxval < 255 and int(arr.max()) > maxval:
        raise PgmMaxvalError(f"pixel value {int(arr.max())} exceeds maxval {maxval}")
    return ImageGrid(arr.copy())


def encode_pgm(grid: ImageGrid) -> bytes:
    """Inverse of decode_pgm: emit a binary P5 graymap with maxval 255."""
    header = f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii")
    return header + grid.pixels.tobytes()


# ---------------------------------------------------------------------------
# Gradient relief

def gradient_magnitude(grid: ImageGrid) -> ImageGrid:
    """Sobel gradient magnitude, normalized so each axis kernel has unit gain
    (divide by 4), rounded half-up and clamped to [0, 255]. Borders are
    computed with edge replication, so on a single-row image the result equals
    the 1-D central difference applied per row."""
    f = np.pad(grid.pixels, 1, mode="edge").astype(np.int16)
    # separable kernels: gx differences the column-smoothed frame along x,
    # gy the row-smoothed frame along y
    col = f[1:-1] * 2
    col += f[:-2]
    col += f[2:]
    row = f[:, 1:-1] * 2
    row += f[:, :-2]
    row += f[:, 2:]
    del f
    gx = col[:, 2:] - col[:, :-2]
    del col
    gy = row[2:] - row[:-2]
    del row
    return ImageGrid(_sobel_magnitude(gx, gy))


def _sobel_magnitude(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Magnitude of the Sobel responses (gx, gy) / 4, rounded half-up and
    clamped at 255, from 4 * gx and 4 * gy as exact ints in [-1020, 1020]."""
    # float32 rounds alike: the root of an integer is either exactly a
    # half-way point 4k + 2 or farther from it than float32's error
    # the sum broadcasts (gx, gy) pairs, so it alone is out of place
    mag = np.sqrt(np.square(gx, dtype=np.int32) + np.square(gy, dtype=np.int32),
                  dtype=np.float32)
    mag += 2
    mag //= 4
    return np.minimum(mag, 255, out=mag).astype(np.uint8)


# ---------------------------------------------------------------------------
# Markers

def _on_page(frame: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The (h, w) view of a skewed frame in which pixel (i, j) sits at row
    i + j + 1 and column i + 1."""
    step = frame.strides[0]
    return as_strided(frame[1:, 1:], shape=shape, strides=(step + frame.itemsize, step))


def suppress_shallow_minima(f: np.ndarray, h: int) -> np.ndarray:
    """h-minima transform: reconstruction by erosion of f + h over f. Minima
    whose depth relative to their lowest saddle is below h disappear. f holds
    8-bit levels (0..255) and 0 <= h <= 256, so f + h fits the int16 result.

    Rounds of a raster scan, g = max(f, min(g, north, west)), and an
    anti-raster scan, g = max(f, min(g, south, east)), run until a round
    changes nothing (Vincent 1993). Each scan steps through the anti-diagonals
    of a skewed frame, in which pixel (i, j) sits at row i + j + 1 and column
    i + 1, so that both neighbours a step reads lie on the row before (after)
    it; every cell off the page holds the int16 maximum. A tall page is
    transposed first, so that the frame is as narrow as its shorter side.
    The frame's rows are cut into about sqrt(height + width) bands that are
    scanned side by side (Lamport 1974), and a band's first row reads the
    previous band's last row as it stands. No step takes g below the
    reconstruction, and g only falls, so a round that leaves its sum
    unchanged changed nothing; such a round leaves a fixpoint of the
    4-neighbour geodesic erosion, of which the reconstruction is the largest
    below f + h."""
    tall = f.shape[0] > f.shape[1]
    if tall:
        f = f.T
    shape = n, _ = f.shape
    rows = sum(shape) + 1  # the anti-diagonals and a pad row at each end
    bands = math.isqrt(rows - 1)
    span = -(-rows // bands)
    fs = np.full((bands * span, n + 2), np.iinfo(np.int16).max, dtype=np.int16)
    _on_page(fs, shape)[...] = f
    gs = fs.copy()
    _on_page(gs, shape)[...] += h
    F, G = fs.reshape(bands, span, -1), gs.reshape(bands, span, -1)
    t = np.empty((bands, n), dtype=np.int16)
    # one step per row of a band, over all bands at once, as (neighbour,
    # neighbour, f, g, buffer) at the page's columns: from (the row before,
    # this row) in the raster scan and (the row after, this row) in the
    # anti-raster scan, across the border between bands at a band's end
    raster, anti = [], []
    for k in range(span):
        rows_of = ((G[:, k - 1], G[:, k], F[:, k]) if k else (G[:-1, -1], G[1:, 0], F[1:, 0]),
                   (G[:, k + 1], G[:, k], F[:, k]) if k < span - 1
                   else (G[1:, 0], G[:-1, -1], F[:-1, -1]))
        for steps, (src, dst, fk), col in zip((raster, anti), rows_of, (0, 2)):
            steps.append((src[:, col : col + n], src[:, 1:-1], fk[:, 1:-1], dst[:, 1:-1],
                          t[: len(dst)]))
    total = gs.sum(dtype=np.int64)
    while True:
        for scan in (raster, anti[::-1]):
            for a, b, fk, gk, tk in scan:
                np.minimum(a, b, out=tk)
                np.maximum(tk, fk, out=tk)
                np.minimum(gk, tk, out=gk)
        last, total = total, gs.sum(dtype=np.int64)
        if total == last:
            g = _on_page(gs, shape)
            return np.ascontiguousarray(g.T) if tall else g.copy()


def regional_minima_markers(grid: ImageGrid, h: int = 0) -> MarkerMap:
    """Label every 4-connected plateau that is a regional minimum after
    h-minima suppression. Labels are assigned 1..K in row-major order of each
    plateau's first pixel. A constant image yields a single marker.

    Plateaus are labelled by union-find over row runs, maximal stretches of
    equal values within a row, numbered in row-major order. Two runs join
    where a pixel equals the pixel below it; each root hooks to the smallest
    root it touches, and the pointers are then compressed. A root only ever
    points to a smaller run, so a plateau's root is its first run, whose
    first pixel is the plateau's first pixel in row-major order."""
    if h < 0:
        raise ValueError("h must be non-negative")
    f = grid.pixels
    if h > 0:
        # any h >= 256 lifts the whole uint8 frame above its highest pixel,
        # so every such h gives one plateau; the cap keeps f + h in int16
        f = suppress_shallow_minima(f, min(h, 256))
    # row runs, numbered in row-major order: each starts a row or a new value
    head = np.ones(f.shape, dtype=bool)
    head[:, 1:] = f[:, 1:] != f[:, :-1]
    run = (np.cumsum(head, dtype=np.int32) - 1).reshape(f.shape)
    # union-find over the runs (a, b) that meet where a pixel equals the one below
    down = f[1:] == f[:-1]
    a, b = run[:-1][down], run[1:][down]
    root = np.arange(run[-1, -1] + 1, dtype=np.int32)
    while (split := root[a] != root[b]).any():
        a, b = a[split], b[split]
        ra, rb = root[a], root[b]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(nxt := root[root], root):
            root = nxt
    # a plateau is not a minimum if any of its pixels has a lower 4-neighbour
    p = np.pad(f, 1, mode="edge")
    lower = np.minimum(np.minimum(p[:-2, 1:-1], p[2:, 1:-1]),
                       np.minimum(p[1:-1, :-2], p[1:-1, 2:])) < f
    drains = np.zeros(root.size, dtype=bool)
    drains[root[run[lower]]] = True
    # the roots of the minima, numbered 1..K in run order
    minimum = ~drains & (root == np.arange(root.size))
    label = np.cumsum(minimum, dtype=np.int32) * minimum
    return MarkerMap(label[root][run])


# ---------------------------------------------------------------------------
# Watershed

class WatershedInputError(ValueError):
    """Grid and marker dimensions disagree, or no markers were given."""


# the most pixels of a level's first wave gathered at once: the gather takes
# 48 bytes per pixel, and a flat gradient level can be half the page
_WAVE_CHUNK = 2**14


def _basins(labels: np.ndarray, near: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The largest and smallest basin (label minus one) at the (4, n) flat
    indices `near`; the sentinels -1 and -2 read as the largest uint32."""
    got = labels[near]
    return got.max(axis=0), got.view(np.uint32).min(axis=0).view(np.int32)


def watershed(grid: ImageGrid, markers: MarkerMap) -> SegmentMap:
    """Marker-controlled immersion watershed.

    Flooding proceeds over intensity levels in ascending order. Within one
    level, basins grow wave-by-wave (synchronous 4-connected BFS) into the
    not-yet-flooded pixels of intensity <= level. A pixel first reached in the
    same wave from two or more distinct basins becomes a line pixel (label 0)
    and never propagates. Pixels never reached by any basin (cut off by line
    pixels) also end up 0.

    Each wave is one array step over its front. The flat int32 map holds
    each pixel's label minus one: basin k holds k - 1, a pixel not yet
    flooded -1, and line pixels and the one-pixel frame -2. One gather
    takes the front's 4 neighbours as a (4, n) array; its max is the largest
    basin, and its min read as uint32 is the smallest, since both sentinels
    read as the largest uint32 values. A pixel whose smallest and largest
    basins agree takes that basin, any other becomes a line pixel. The next
    front is the pending neighbours of the pixels won in this wave, so every
    pixel of it touches a basin. A level's first wave starts from that
    level's own pixels only, because pixels left pending by lower levels
    have no labelled neighbour; it alone drops the pixels no basin reaches.
    It gathers at most `_WAVE_CHUNK` pixels at a time, so its peak memory
    does not grow with the size of the level.
    """
    if (grid.height, grid.width) != (markers.height, markers.width):
        raise WatershedInputError("grid and marker dimensions disagree")
    if markers.count < 1:
        raise WatershedInputError("marker map is empty")

    stride = grid.width + 2
    labels = np.pad(markers.labels - 1, 1, constant_values=-2).ravel()
    relief = np.pad(grid.pixels, 1).ravel()
    todo = np.flatnonzero(labels == -1)
    todo = todo[np.argsort(relief[todo], kind="stable")]
    cuts = np.flatnonzero(relief[todo][1:] != relief[todo][:-1]) + 1
    offsets = np.array([[-stride], [1], [stride], [-1]], dtype=np.intp)
    pending = np.zeros(labels.size, dtype=bool)
    stamp = np.zeros(labels.size, dtype=np.int32)

    for level in np.split(todo, cuts) if todo.size else ():
        pending[level] = True
        # the first wave reads the level in slices, keeping the pixels some
        # basin reaches; no label is written until every slice is read
        parts = []
        for start in range(0, level.size, _WAVE_CHUNK):
            front = level[start : start + _WAVE_CHUNK]
            hi, lo = _basins(labels, front + offsets)
            reached = hi >= 0
            parts.append((front[reached], hi[reached], lo[reached]))
        front, hi, lo = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        del parts
        while True:
            won = lo == hi
            labels[front] = np.where(won, hi, -2)
            pending[front] = False
            grown = (front[won] + offsets).ravel()
            grown = grown[pending[grown]]
            # keep one copy of each pixel: the one whose position its stamp holds
            order = np.arange(grown.size, dtype=np.int32)
            stamp[grown] = order
            front = grown[stamp[grown] == order]
            if not front.size:
                break
            hi, lo = _basins(labels, front + offsets)
    # line pixels and unreached pixels are divide territory
    return SegmentMap(np.maximum(labels.reshape(-1, stride)[1:-1, 1:-1], -1) + 1)


# ---------------------------------------------------------------------------
# Run-length masks

def rle_decode(rle: MaskRLE) -> np.ndarray:
    """Decode to a (height, width) boolean array."""
    total = rle.width * rle.height
    if rle.counts and min(rle.counts) < 0:
        raise RleError("negative run count")
    if sum(rle.counts) != total:
        raise RleError(f"run counts sum to {sum(rle.counts)}, expected {total}")
    values = np.zeros(len(rle.counts), dtype=bool)
    values[1::2] = True  # runs alternate zero, one, zero, ...
    counts = np.asarray(rle.counts, dtype=np.intp)
    return np.repeat(values, counts).reshape(rle.height, rle.width)


# ---------------------------------------------------------------------------
# Segment extraction

def trace_contour(codes: bytes, ring: list[int], starts: list[int]) -> list[int]:
    """Order the boundary pixels of one region by clockwise Moore tracing.

    `codes` holds one byte per cell of a flat map framed by non-region
    cells, `ring` the flat offsets of a cell's 8 neighbours in N8_CLOCKWISE
    order, and `starts` the region's 4-boundary cells in row-major order.
    The byte of a boundary cell is its neighbour code: bit j is set when
    its neighbour in direction j is in the region; other cells are never
    read. Each step looks up its direction in `_FIRST[code * 8 + back]`,
    the first set bit of the code clockwise past the backtrack `back`,
    instead of probing the neighbours.
    Each closed boundary (outer border, then hole borders) is walked
    clockwise starting from its topmost-leftmost untraced pixel; pixels are
    listed once, in first-visit order, as flat indices, and cover the full
    boundary set. A walk ends at its first repeated (pixel, backtrack) state
    or after 8 * (untraced boundary pixels + 1) steps, as in
    `oracles.moore_oracle`.
    """
    ordered: dict[int, None] = {}  # insertion-ordered: first visit wins
    for start in starts:
        if start in ordered:
            continue
        # every walked pixel is a boundary pixel, so the untraced boundary
        # pixels number len(starts) - len(ordered)
        budget = 8 * (len(starts) - len(ordered) + 1)
        ordered[start] = None
        code = codes[start]
        if not code:
            continue  # isolated pixel
        # initial backtrack: first non-region 4-neighbor, clockwise from north
        back = next(d for d in (0, 2, 4, 6) if not code >> d & 1)
        cur = start
        # the walk is deterministic in (pixel, backtrack): once a state
        # repeats it only retraces itself, so it ends there
        states = {start * 8 + back}
        for _ in range(budget):
            j = _FIRST[codes[cur] * 8 + back]
            cur += ring[j]
            back = _BACKTRACK_AFTER[j]
            state = cur * 8 + back
            if state in states:
                break
            states.add(state)
            # a hole walk may pass over pixels the outer walk already
            # listed; list each boundary pixel once, first visit wins
            ordered.setdefault(cur)
    return list(ordered)


def extract_segments(segmap: SegmentMap, x: int = 0, y: int = 0) -> list[Segment]:
    """Build one Segment per positive region id (ascending) of a label map
    whose top-left pixel sits at image position (x, y). Line pixels belong
    to no segment. Masks are stored bbox-local; contours are in image
    coordinates. The map's row runs and boundary pixels, stably sorted by
    label, give every box, area and mask in array code; only the Moore walks
    (`trace_contour`) loop per region."""
    labels = segmap.labels
    hgt, wdt = labels.shape
    stride = wdt + 2
    # the map in a frame of -1, which no region has
    cells = np.full((hgt + 2, stride), -1, dtype=np.int32)
    cells[1:-1, 1:-1] = labels
    # label changes from the left (h x w+1) and from above (h+1 x w)
    left = cells[1:-1, 1:] != cells[1:-1, :-1]
    up = cells[1:, 1:-1] != cells[:-1, 1:-1]
    inside = labels > 0
    # a boundary pixel has a 4-neighbour with another label or off the map
    edge = np.zeros(cells.shape, dtype=bool)
    edge[1:-1, 1:-1] = (left[:, :-1] | left[:, 1:] | up[:-1] | up[1:]) & inside
    border = np.flatnonzero(edge)
    cells = cells.ravel()
    border = border[np.argsort(cells[border], kind="stable")]
    # each boundary pixel's neighbour code: bit j, its neighbour in
    # direction j has its label
    ring = [dy * stride + dx for dx, dy in N8_CLOCKWISE]
    near = cells[border + np.array(ring, dtype=np.intp)[:, None]]
    codes = np.zeros(cells.size, dtype=np.uint8)
    codes[border] = np.packbits(near == cells[border], axis=0, bitorder="little")[0]
    starts = np.flatnonzero(left[:, :-1] & inside)
    lengths = np.flatnonzero(left[:, 1:] & inside) - starts + 1
    ids = labels.ravel()[starts]
    order = np.argsort(ids, kind="stable")
    starts, lengths, ids = starts[order], lengths[order], ids[order]
    first = np.ones(ids.size, dtype=bool)  # first run of its region
    first[1:] = ids[1:] != ids[:-1]
    heads = np.flatnonzero(first)
    g = np.cumsum(first) - 1  # region of each run
    rows, cols = np.divmod(starts, wdt)
    y0s, x0s = rows[heads], np.minimum.reduceat(cols, heads)
    ws = np.maximum.reduceat(cols + lengths, heads) - x0s
    hs = np.maximum.reduceat(rows, heads) + 1 - y0s
    # box-local start and end of each run; a run that starts where the one
    # before it ended (across a box row) continues that mask run
    begin = (rows - y0s[g]) * ws[g] + (cols - x0s[g])
    end = begin + lengths
    gap = begin - np.where(first, 0, np.concatenate(([0], end[:-1])))
    merged = np.flatnonzero(first | (gap > 0))
    # counts interleave the zero-run before each one-run with the one-run
    counts = np.ravel((gap[merged], np.add.reduceat(lengths, merged)), order="F").tolist()
    runs = np.flatnonzero(first[merged]).tolist() + [merged.size]
    cuts = np.searchsorted(cells[border], ids[heads]).tolist() + [border.size]
    border, codes = border.tolist(), codes.tobytes()
    ox, oy = x - 1, y - 1  # image position of the frame's top-left cell
    out = []
    for k, (rid, bx, by, w, h, area, tail) in enumerate(np.array((
            ids[heads], x0s, y0s, ws, hs, np.add.reduceat(lengths, heads),
            ws * hs - np.maximum.reduceat(end, heads))).T.tolist()):
        mask = counts[2 * runs[k] : 2 * runs[k + 1]]
        if tail:
            mask.append(tail)
        walk = trace_contour(codes, ring, border[cuts[k] : cuts[k + 1]])
        out.append(Segment(rid, BoundingBox(bx + x, by + y, w, h), MaskRLE(w, h, tuple(mask)),
                           area, tuple([(p % stride + ox, p // stride + oy) for p in walk])))
    return out
