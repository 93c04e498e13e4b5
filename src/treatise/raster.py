"""Grayscale raster primitives: PGM decoding, gradients, markers, watershed,
segment extraction, and run-length masks.

Everything here is pure and deterministic. Pixels live in (h, w) uint8 numpy
arrays; coordinates are (x, y) with x = column, y = row, origin top-left.
Connectivity is 4-connected throughout (regions, plateaus, contours).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# 4-neighborhood as (dx, dy)
N4 = ((0, -1), (1, 0), (0, 1), (-1, 0))

# 8-neighborhood in clockwise screen order (y grows downward), starting north
N8_CLOCKWISE = ((0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1))


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

    def region_ids(self) -> list[int]:
        ids = np.unique(self.labels)
        return [int(i) for i in ids if i > 0]


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
    starting with the zero-run (which may be 0)."""

    width: int
    height: int
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))


@dataclass(frozen=True)
class Segment:
    """One detected region: tight box, bbox-local mask, area, and the ordered
    boundary contour in image coordinates."""

    id: int
    bbox: BoundingBox
    mask: MaskRLE
    area: int
    contour: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "contour", tuple((int(x), int(y)) for x, y in self.contour))


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
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise PgmHeaderError("non-numeric header field") from None
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
    f = np.pad(grid.pixels.astype(np.float64), 1, mode="edge")
    gx = (
        (f[:-2, 2:] + 2.0 * f[1:-1, 2:] + f[2:, 2:])
        - (f[:-2, :-2] + 2.0 * f[1:-1, :-2] + f[2:, :-2])
    ) / 4.0
    gy = (
        (f[2:, :-2] + 2.0 * f[2:, 1:-1] + f[2:, 2:])
        - (f[:-2, :-2] + 2.0 * f[:-2, 1:-1] + f[:-2, 2:])
    ) / 4.0
    mag = np.hypot(gx, gy)
    out = np.minimum(np.floor(mag + 0.5), 255.0)
    return ImageGrid(out.astype(np.uint8))


# ---------------------------------------------------------------------------
# Markers

def _erode4(f: np.ndarray) -> np.ndarray:
    """Grayscale erosion with the 4-neighborhood plus center; values outside
    the frame act as +inf."""
    big = np.iinfo(np.int64).max
    p = np.pad(f, 1, mode="constant", constant_values=big)
    return np.minimum.reduce(
        [p[1:-1, 1:-1], p[:-2, 1:-1], p[2:, 1:-1], p[1:-1, :-2], p[1:-1, 2:]]
    )


def suppress_shallow_minima(f: np.ndarray, h: int) -> np.ndarray:
    """h-minima transform: reconstruction by erosion of f + h over f. Minima
    whose depth relative to their lowest saddle is below h disappear."""
    mask = f.astype(np.int64)
    marker = mask + int(h)
    while True:
        nxt = np.maximum(mask, _erode4(marker))
        if np.array_equal(nxt, marker):
            return marker
        marker = nxt


def regional_minima_markers(grid: ImageGrid, h: int = 0) -> MarkerMap:
    """Label every 4-connected plateau that is a regional minimum after
    h-minima suppression. Labels are assigned 1..K in row-major order of each
    plateau's first pixel. A constant image yields a single marker."""
    if h < 0:
        raise ValueError("h must be non-negative")
    f = grid.pixels.astype(np.int64)
    if h > 0:
        f = suppress_shallow_minima(f, h)
    hgt, wdt = f.shape
    labels = np.zeros((hgt, wdt), dtype=np.int32)
    next_id = 1
    for sy in range(hgt):
        for sx in range(wdt):
            if labels[sy, sx]:
                continue
            # flood the equal-value plateau containing (sx, sy)
            val = f[sy, sx]
            stack = [(sx, sy)]
            labels[sy, sx] = -1
            plateau = [(sx, sy)]
            is_minimum = True
            while stack:
                x, y = stack.pop()
                for dx, dy in N4:
                    nx, ny = x + dx, y + dy
                    if not (0 <= nx < wdt and 0 <= ny < hgt):
                        continue
                    v = f[ny, nx]
                    if v < val:
                        is_minimum = False
                    elif v == val and labels[ny, nx] == 0:
                        labels[ny, nx] = -1
                        plateau.append((nx, ny))
                        stack.append((nx, ny))
            mark = next_id if is_minimum else -2
            if is_minimum:
                next_id += 1
            for x, y in plateau:
                labels[y, x] = mark
    labels[labels == -2] = 0
    return MarkerMap(labels)


# ---------------------------------------------------------------------------
# Watershed

class WatershedInputError(ValueError):
    """Grid and marker dimensions disagree, or no markers were given."""


def watershed(grid: ImageGrid, markers: MarkerMap) -> SegmentMap:
    """Marker-controlled immersion watershed.

    Flooding proceeds over intensity levels in ascending order. Within one
    level, basins grow wave-by-wave (synchronous 4-connected BFS) into the
    not-yet-flooded pixels of intensity <= level. A pixel first reached in the
    same wave from two or more distinct basins becomes a line pixel (label 0)
    and never propagates. Pixels never reached by any basin (cut off by line
    pixels) also end up 0. The outcome is independent of pixel visiting order;
    the scan used here is row-major.
    """
    if (grid.height, grid.width) != (markers.height, markers.width):
        raise WatershedInputError("grid and marker dimensions disagree")
    if markers.count < 1:
        raise WatershedInputError("marker map is empty")

    relief = grid.pixels
    hgt, wdt = relief.shape
    labels = markers.labels.astype(np.int32).copy()
    line = np.zeros_like(labels, dtype=bool)
    pending = np.zeros_like(line)  # seen at <= current level but unflooded

    for level in np.unique(relief):
        pending |= (relief == level) & (labels == 0) & ~line
        if not pending.any():
            continue
        # first wave: pending pixels adjacent to any labeled pixel
        claims: dict[tuple[int, int], set[int]] = {}
        lab_mask = labels > 0
        adj = np.zeros_like(lab_mask)
        adj[:-1, :] |= lab_mask[1:, :]
        adj[1:, :] |= lab_mask[:-1, :]
        adj[:, :-1] |= lab_mask[:, 1:]
        adj[:, 1:] |= lab_mask[:, :-1]
        ys, xs = np.nonzero(pending & adj)
        for y, x in zip(ys.tolist(), xs.tolist()):
            got = set()
            for dx, dy in N4:
                nx, ny = x + dx, y + dy
                if 0 <= nx < wdt and 0 <= ny < hgt and labels[ny, nx] > 0:
                    got.add(int(labels[ny, nx]))
            claims[(x, y)] = got
        while claims:
            advanced = []
            for (x, y), got in claims.items():
                pending[y, x] = False
                if len(got) == 1:
                    labels[y, x] = got.pop()
                    advanced.append((x, y))
                else:
                    line[y, x] = True
            claims = {}
            for x, y in advanced:
                lab = int(labels[y, x])
                for dx, dy in N4:
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < wdt and 0 <= ny < hgt and pending[ny, nx]:
                        claims.setdefault((nx, ny), set()).add(lab)
    # anything still unlabeled is divide territory
    return SegmentMap(labels)


# ---------------------------------------------------------------------------
# Run-length masks

def rle_encode(bits, width: int, height: int) -> MaskRLE:
    """Encode a row-major bit sequence of length width*height."""
    flat = np.asarray(bits, dtype=bool).ravel()
    if flat.size != width * height:
        raise RleError("bit sequence length must equal width * height")
    # runs end wherever a pixel differs from the next one
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate(([0], change, [flat.size]))
    counts = (bounds[1:] - bounds[:-1]).tolist()
    if flat.size and flat[0]:
        counts.insert(0, 0)  # runs start with zeros
    return MaskRLE(width, height, counts)


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

def boundary_mask(mask: np.ndarray) -> np.ndarray:
    """Set pixels with at least one unset-or-out-of-bounds 4-neighbor: the
    mask AND NOT the 4-neighbor erosion of the zero-padded mask."""
    hgt, wdt = mask.shape
    p = np.zeros((hgt + 2, wdt + 2), dtype=bool)
    p[1:-1, 1:-1] = mask
    return p[1:-1, 1:-1] & ~(p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:])


def trace_contour(mask: np.ndarray) -> list[tuple[int, int]]:
    """Order the boundary pixels of a mask by clockwise Moore tracing.

    Each closed boundary (outer border, then hole borders) is walked clockwise
    starting from its topmost-leftmost untraced pixel; pixels are listed once,
    in first-visit order. The resulting list covers the full boundary set.
    """
    hgt, wdt = mask.shape

    def inside(x, y):
        return 0 <= x < wdt and 0 <= y < hgt and mask[y, x]

    ys, xs = np.nonzero(boundary_mask(mask))
    remaining = set(zip(xs.tolist(), ys.tolist()))
    ordered: list[tuple[int, int]] = []
    traced: set[tuple[int, int]] = set()
    while remaining:
        start = min(remaining, key=lambda p: (p[1], p[0]))
        # initial backtrack: first non-region 4-neighbor, clockwise from north
        back = None
        for dx, dy in N8_CLOCKWISE:
            if (dx, dy) not in N4:
                continue
            if not inside(start[0] + dx, start[1] + dy):
                back = (start[0] + dx, start[1] + dy)
                break
        assert back is not None  # boundary pixels always have one
        visited = {start}
        component = [start]
        cur, bt = start, back
        # the walk is deterministic in (pixel, backtrack): once a state
        # repeats it only retraces itself, so it ends there
        states = {(start, back)}
        for _ in range(8 * (len(remaining) + 1)):
            # scan clockwise around cur, starting just past the backtrack
            bidx = N8_CLOCKWISE.index((bt[0] - cur[0], bt[1] - cur[1]))
            nxt = None
            last_out = bt
            for k in range(1, 9):
                dx, dy = N8_CLOCKWISE[(bidx + k) % 8]
                cand = (cur[0] + dx, cur[1] + dy)
                if inside(*cand):
                    nxt = cand
                    break
                last_out = cand
            if nxt is None:
                break  # isolated pixel
            cur, bt = nxt, last_out
            if (cur, bt) in states:
                break
            states.add((cur, bt))
            if cur not in visited:
                visited.add(cur)
                # a hole walk may pass over pixels the outer walk already
                # listed; list each boundary pixel once, first visit wins
                if cur not in traced:
                    component.append(cur)
        ordered.extend(component)
        traced |= visited
        remaining -= visited
    return ordered


def segment_from_mask(seg_id: int, mask: np.ndarray, x: int = 0, y: int = 0) -> Segment | None:
    """The Segment covering the set pixels of a boolean mask whose top-left
    pixel sits at image position (x, y): tight box, box-local RLE mask, area,
    and contour in image coordinates. None when no pixel is set."""
    rows = np.flatnonzero(mask.any(axis=1))
    if not rows.size:
        return None
    cols = np.flatnonzero(mask.any(axis=0))
    y0, y1, x0, x1 = int(rows[0]), int(rows[-1]), int(cols[0]), int(cols[-1])
    tight = mask[y0 : y1 + 1, x0 : x1 + 1]
    bbox = BoundingBox(x + x0, y + y0, x1 - x0 + 1, y1 - y0 + 1)
    return Segment(
        id=seg_id,
        bbox=bbox,
        mask=rle_encode(tight, bbox.w, bbox.h),
        area=int(np.count_nonzero(tight)),
        contour=tuple((px + bbox.x, py + bbox.y) for px, py in trace_contour(tight)),
    )


def extract_segments(segmap: SegmentMap) -> list[Segment]:
    """Build one Segment per region id (ascending). Line pixels belong to no
    segment. Masks are stored bbox-local; contours are in image coordinates."""
    return [segment_from_mask(rid, segmap.labels == rid) for rid in segmap.region_ids()]
