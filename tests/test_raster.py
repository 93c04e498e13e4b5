import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_pgm, random_grid, shaped_mask
from treatise import raster
from treatise.raster import (
    BoundingBox,
    ImageGrid,
    MarkerMap,
    MaskRLE,
    PgmError,
    RleError,
    SegmentMap,
    decode_pgm,
    encode_pgm,
    extract_segments,
    gradient_magnitude,
    regional_minima_markers,
    rle_decode,
    watershed,
)

grids = st.integers(2, 6).flatmap(
    lambda w: st.integers(2, 6).flatmap(
        lambda h: st.lists(
            st.lists(st.integers(0, 9), min_size=w, max_size=w),
            min_size=h, max_size=h,
        )
    )
)

masks = st.integers(1, 6).flatmap(
    lambda w: st.integers(1, 6).flatmap(
        lambda h: st.lists(
            st.lists(st.booleans(), min_size=w, max_size=w),
            min_size=h, max_size=h,
        )
    )
)


def serpentine(w, h, corridor, wall):
    """Rows of a w x h grid whose even rows are one corridor, joined through
    the odd rows at alternate ends. corridor() and wall() give each pixel."""
    return [[corridor() if y % 2 == 0 or x == (w - 1 if y % 4 == 1 else 0) else wall()
             for x in range(w)] for y in range(h)]


def transposed(rows):
    return [list(col) for col in zip(*rows)]


def rows_grid(rows):
    return ImageGrid(np.asarray(rows, dtype=np.uint8))


def contour_of(mask):
    """The contour of the one region a 0/1 mask makes, in mask coordinates."""
    return list(extract_segments(SegmentMap(mask))[0].contour)


# ---------------------------------------------------------------------------
# PGM

class TestPgm:
    def test_decode_2x2(self):
        grid = decode_pgm(b"P5 2 2 255\n" + bytes([0, 255, 0, 255]))
        assert grid.width == 2 and grid.height == 2
        assert grid.tolist() == [0, 255, 0, 255]

    def test_decode_minimal(self):
        grid = decode_pgm(b"P5 1 1 255\n" + bytes([7]))
        assert grid.tolist() == [7]

    def test_truncated(self):
        with pytest.raises(PgmError):
            decode_pgm(b"P5 3 2 255\n" + bytes(5))

    def test_wrong_magic(self):
        with pytest.raises(PgmError):
            decode_pgm(b"P2 1 1 255\n7")

    def test_maxval_over_255(self):
        with pytest.raises(PgmError):
            decode_pgm(b"P5 1 1 65535\n" + bytes(2))

    def test_pixel_over_maxval(self):
        with pytest.raises(PgmError):
            decode_pgm(b"P5\n2 1\n15\n" + bytes([200, 3]))
        assert decode_pgm(b"P5\n2 1\n15\n" + bytes([15, 3])).tolist() == [15, 3]

    def test_comment_header(self):
        grid = decode_pgm(b"P5\n# scanner output\n2 1\n255\n" + bytes([3, 4]))
        assert grid.tolist() == [3, 4]

    @pytest.mark.parametrize("header", [b"P5\n1_0 1\n255\n", b"P5\n+1 10\n255\n",
                                        b"P5\n10 1\n+255\n"])
    def test_header_fields_are_ascii_decimal(self, header):
        # int() would take a sign or an underscore; netpbm fields are digits only
        with pytest.raises(raster.PgmHeaderError, match="non-numeric header field"):
            decode_pgm(header + bytes(10))

    def test_roundtrip(self):
        rng = random.Random(7)
        for _ in range(20):
            w, h = rng.randint(1, 9), rng.randint(1, 9)
            rows = random_grid(rng, w, h, 0, 255)
            grid = ImageGrid.from_list(w, h, [v for r in rows for v in r])
            assert decode_pgm(encode_pgm(grid)) == grid


# ---------------------------------------------------------------------------
# gradient

class TestGradient:
    def test_constant_is_zero(self):
        grid = ImageGrid.from_list(3, 3, [5] * 9)
        assert gradient_magnitude(grid).tolist() == [0] * 9

    def test_vertical_step(self):
        # columns [0,0,255,255]: interior response |gx|=255 at the step
        grid = ImageGrid.from_list(4, 1, [0, 0, 255, 255])
        out = gradient_magnitude(grid)
        assert out.tolist() == [0, 255, 255, 0]

    @settings(max_examples=60, deadline=None)
    @given(grids)
    def test_matches_convolution_oracle(self, rows):
        w, h = len(rows[0]), len(rows)
        grid = ImageGrid.from_list(w, h, [v for r in rows for v in r])
        expect = oracles.sobel_oracle(rows)
        got = gradient_magnitude(grid).pixels.tolist()
        assert got == expect

    def test_full_range_values(self):
        rng = random.Random(11)
        rows = random_grid(rng, 6, 5, 0, 255)
        grid = ImageGrid.from_list(6, 5, [v for r in rows for v in r])
        assert gradient_magnitude(grid).pixels.tolist() == oracles.sobel_oracle(rows)

    def test_rounding_of_every_response_pair(self):
        # 4 * gx and 4 * gy are ints in [-1020, 1020] and the magnitude is
        # symmetric in sign, so these pairs cover every 3x3 uint8 neighbourhood
        v = np.arange(1021, dtype=np.int16)
        got = raster._sobel_magnitude(v[:, None], v[None, :]).tolist()
        assert got == [[min(255, math.floor(math.hypot(x / 4, y / 4) + 0.5)) for y in range(1021)]
                       for x in range(1021)]


# ---------------------------------------------------------------------------
# regional minima

class TestMinima:
    def test_single_global_min(self):
        grid = ImageGrid.from_list(3, 1, [2, 1, 2])
        markers = regional_minima_markers(grid)
        assert markers.labels.tolist() == [[0, 1, 0]]

    def test_plateau_single_label(self):
        grid = ImageGrid.from_list(4, 1, [1, 1, 2, 2])
        markers = regional_minima_markers(grid)
        assert markers.labels.tolist() == [[1, 1, 0, 0]]

    def test_two_minima_row_major_order(self):
        grid = ImageGrid.from_list(5, 1, [1, 2, 5, 2, 1])
        markers = regional_minima_markers(grid)
        assert markers.labels.tolist() == [[1, 0, 0, 0, 2]]

    def test_constant_grid_single_marker(self):
        grid = ImageGrid.from_list(3, 3, [4] * 9)
        markers = regional_minima_markers(grid)
        assert markers.labels.tolist() == [[1] * 3] * 3

    @settings(max_examples=80, deadline=None)
    @given(grids)
    def test_matches_plateau_oracle(self, rows):
        w, h = len(rows[0]), len(rows)
        grid = ImageGrid.from_list(w, h, [v for r in rows for v in r])
        assert regional_minima_markers(grid).labels.tolist() == oracles.minima_oracle(rows)

    def test_h_suppression_shallow_basin_merges(self):
        # side basin of depth 1 disappears with h=2; deep basin survives
        vals = [0, 5, 4, 5, 9]
        grid = ImageGrid.from_list(5, 1, vals)
        plain = regional_minima_markers(grid)
        assert plain.labels.tolist() == [[1, 0, 2, 0, 0]]
        suppressed = regional_minima_markers(grid, h=2)
        assert suppressed.labels.tolist() == [[1, 0, 0, 0, 0]]

    def test_every_h_from_256_gives_the_markers_of_256(self):
        # h >= 256 lifts a whole uint8 frame above its highest pixel; an h
        # beyond int64 must not overflow
        rng = np.random.default_rng(256)
        for _ in range(300):
            shape = tuple(int(n) for n in rng.integers(1, 12, size=2))
            grid = ImageGrid(rng.integers(0, 256, size=shape, dtype=np.uint8))
            want = regional_minima_markers(grid, h=256).labels.tolist()
            for h in (257, 1000, 2**40, 2**62, 10**20):
                assert regional_minima_markers(grid, h=h).labels.tolist() == want

    @settings(max_examples=40, deadline=None)
    @given(grids, st.integers(0, 4) | st.sampled_from([255, 256, 10**6]))
    def test_h_matches_reconstruction_oracle(self, rows, h):
        w, hgt = len(rows[0]), len(rows)
        if h >= 255:
            # the edge of the h cap, where f + h reaches 511: the reconstruction
            # lifts the frame to its lowest pixel + 256 and wraps nowhere
            rows[0][0], rows[-1][-1] = 0, 255
            f = np.asarray(rows, dtype=np.uint8)
            assert raster.suppress_shallow_minima(f, 256).tolist() == [[256] * w] * hgt
            assert (raster.suppress_shallow_minima(np.full_like(f, 255), 256) == 511).all()
        grid = ImageGrid.from_list(w, hgt, [v for r in rows for v in r])
        recon = oracles.hminima_oracle(rows, h)
        expect = oracles.minima_oracle(recon)
        got = regional_minima_markers(grid, h=h).labels.tolist()
        assert got == expect

    def test_labels_contiguous(self):
        rng = random.Random(3)
        for _ in range(30):
            rows = random_grid(rng, rng.randint(1, 7), rng.randint(1, 7))
            grid = ImageGrid.from_list(len(rows[0]), len(rows), [v for r in rows for v in r])
            m = regional_minima_markers(grid)
            ids = sorted(set(int(v) for v in m.labels.ravel()) - {0})
            assert ids == list(range(1, len(ids) + 1))
            assert len(ids) >= 1

    def test_serpentine_and_ring_plateaus_match_oracle(self):
        # long, winding plateaus: the union-find needs many hooking rounds
        rng = random.Random(61)
        for _ in range(12):
            w, h = rng.randint(2, 64), rng.randint(2, 64)
            lo, hi = rng.randint(0, 3), rng.randint(0, 3)
            snake = serpentine(w, h, lambda: lo, lambda: hi)
            ring = [rng.randint(0, 3) for _ in range(32)]
            rings = [[ring[min(x, y, w - 1 - x, h - 1 - y)] for x in range(w)]
                     for y in range(h)]
            for rows in (snake, transposed(snake), rings):
                got = regional_minima_markers(rows_grid(rows)).labels.tolist()
                assert got == oracles.minima_oracle(rows)

    def test_h_matches_reconstruction_oracle_on_winding_corridors(self):
        # shallow dips along one corridor: the reconstruction has to follow
        # every turn. Values stay <= 255 - h, where the oracle's clamp of
        # f + h at 255 never applies.
        rng = random.Random(91)
        for _ in range(12):
            w, hgt, h = rng.randint(2, 32), rng.randint(2, 32), rng.randint(1, 8)
            base = rng.randint(0, 200)
            snake = serpentine(w, hgt, lambda: base + rng.randint(0, 6),
                               lambda: rng.randint(base + 7, 255 - h))
            for rows in (snake, transposed(snake)):
                recon = oracles.hminima_oracle(rows, h)
                assert raster.suppress_shallow_minima(np.asarray(rows), h).tolist() == recon
                got = regional_minima_markers(rows_grid(rows), h=h).labels.tolist()
                assert got == oracles.minima_oracle(recon)


def assert_reconstruction(rows, h):
    """suppress_shallow_minima against hminima_oracle. The oracle starts from
    min(255, f + h), and the clamp at 255 commutes with every erosion step, so
    its result is the reconstruction clamped at 255. For h >= 255, f + h at
    the lowest pixel is above every pixel, so the whole frame rises to it."""
    f = np.asarray(rows, dtype=np.uint8)
    got = raster.suppress_shallow_minima(f, h)
    assert got.dtype == np.int16 and got.shape == f.shape and got.flags.c_contiguous
    assert np.minimum(got, 255).tolist() == oracles.hminima_oracle(rows, h)
    if h >= 255:
        assert (got == int(f.min()) + h).all()
    got_markers = regional_minima_markers(ImageGrid(f), h=h).labels.tolist()
    assert got_markers == oracles.minima_oracle(np.minimum(got, 255).tolist())


class TestReconstructionScans:
    """The scans step through the anti-diagonals of an h x w frame (rows and
    columns swapped when h > w), cut into isqrt(h + w) bands."""

    @pytest.mark.parametrize("h", [1, 255, 256])
    def test_one_row_and_one_column_frames(self, h):
        rng = random.Random(h)
        for n in (1, 2, 3, 5, 17, 64, 301):
            row = [rng.choice((rng.randint(0, 9), rng.randint(0, 254))) for _ in range(n)]
            assert_reconstruction([row], h)
            assert_reconstruction(transposed([row]), h)

    @pytest.mark.parametrize("shapes", [
        [(1, 1), (1, 2), (2, 1)],  # one band
        [(2, 2), (1, 3), (3, 1), (2, 5), (3, 4), (4, 3)],  # two bands
        [(9, 30), (30, 9), (23, 23), (40, 17), (5, 60)],  # 6 to 8 bands
    ], ids=["one-band", "two-bands", "many-bands"])
    @pytest.mark.parametrize("h", [1, 2, 4, 255, 256])
    def test_random_frames_of_one_two_and_many_bands(self, shapes, h):
        rng = random.Random(len(shapes) * 1000 + h)
        for hgt, w in shapes:
            for _ in range(6):
                top = rng.choice((3, 9, 254))
                assert_reconstruction(
                    [[rng.randint(0, top) for _ in range(w)] for _ in range(hgt)], h)

    @pytest.mark.parametrize("h", [1, 4, 16])
    def test_serpentine_corridors_cross_band_borders(self, h):
        # the deep end pulls the whole corridor down to its highest bump, so
        # the reconstruction follows every turn: rightward rows run along the
        # raster scan, leftward rows against it, and each turn crosses band
        # borders between 64 x 64's 11 bands
        rng = random.Random(64 + h)
        for end in ((0, 0), (63, 62), (0, 62), (31, 30)):
            snake = serpentine(64, 64, lambda: 100 + rng.randint(0, h + 2), lambda: 250)
            snake[end[1]][end[0]] = 40
            for rows in (snake, transposed(snake)):
                assert_reconstruction(rows, h)

    @pytest.mark.parametrize("h", [1, 255, 256])
    def test_constant_frames(self, h):
        for hgt, w in ((1, 1), (1, 7), (7, 1), (5, 5), (3, 40), (40, 3)):
            for c in (0, 128, 255):
                assert_reconstruction([[c] * w for _ in range(hgt)], h)
                got = raster.suppress_shallow_minima(np.full((hgt, w), c, np.uint8), h)
                assert (got == c + h).all()

    @pytest.mark.parametrize("shape", [(2048, 32), (32, 2048)], ids=["2048x32", "32x2048"])
    def test_long_thin_frames_peak_bytes_per_pixel(self, shape):
        # a tall frame is scanned transposed, so the skewed frame is as
        # narrow as the page's shorter side either way
        f = np.random.default_rng(32).integers(0, 256, size=shape, dtype=np.uint8)
        tracemalloc.start()
        try:
            raster.suppress_shallow_minima(f, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * f.size


# ---------------------------------------------------------------------------
# watershed

def ws_pair(rows, markers_rows=None):
    w, h = len(rows[0]), len(rows)
    grid = ImageGrid.from_list(w, h, [v for r in rows for v in r])
    if markers_rows is None:
        markers = regional_minima_markers(grid)
    else:
        markers = MarkerMap(np.asarray(markers_rows, dtype=np.int32))
    return grid, markers


class TestWatershed:
    def test_single_marker_floods_all(self):
        rows = [[3, 3, 3]] * 3
        markers = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
        markers[0][0] = 1
        grid, m = ws_pair(rows, markers)
        out = watershed(grid, m)
        assert out.labels.tolist() == [[1, 1, 1]] * 3

    def test_symmetric_ridge(self):
        grid, m = ws_pair([[1, 2, 5, 2, 1]], [[1, 0, 0, 0, 2]])
        out = watershed(grid, m)
        assert out.labels.tolist() == [[1, 1, 0, 2, 2]]

    def test_dimension_mismatch_rejected(self):
        grid = ImageGrid.from_list(2, 2, [1, 2, 3, 4])
        markers = MarkerMap(np.asarray([[1, 0, 0]], dtype=np.int32))
        with pytest.raises(ValueError):
            watershed(grid, markers)

    @settings(max_examples=100, deadline=None)
    @given(grids)
    def test_oracle_equivalence(self, rows):
        grid, markers = ws_pair(rows)
        got = watershed(grid, markers).labels.tolist()
        expect = oracles.watershed_oracle(rows, markers.labels.tolist())
        assert got == expect

    def test_oracle_equivalence_8x8(self):
        rng = random.Random(2024)
        for _ in range(100):
            rows = random_grid(rng, 8, 8, 0, 7)
            grid, markers = ws_pair(rows)
            got = watershed(grid, markers).labels.tolist()
            assert got == oracles.watershed_oracle(rows, markers.labels.tolist())

    def test_partition_and_preservation(self):
        rng = random.Random(5)
        for _ in range(300):
            w, h = rng.randint(1, 7), rng.randint(1, 7)
            rows = random_grid(rng, w, h)
            grid, markers = ws_pair(rows)
            out = watershed(grid, markers).labels
            # partition: each pixel exactly one of line/region
            areas = {rid: int((out == rid).sum())
                     for rid in set(out.ravel().tolist()) if rid > 0}
            line = int((out == 0).sum())
            assert line + sum(areas.values()) == w * h
            # marker preservation
            ml = markers.labels
            for rid in range(1, markers.count + 1):
                assert (out[ml == rid] == rid).all()

    def test_relabeling_invariance(self):
        rng = random.Random(8)
        for _ in range(40):
            rows = random_grid(rng, 5, 5)
            grid, markers = ws_pair(rows)
            k = markers.count
            if k < 2:
                continue
            perm = list(range(1, k + 1))
            rng.shuffle(perm)
            remap = {i + 1: perm[i] for i in range(k)}
            ml = markers.labels
            permuted = np.zeros_like(ml)
            for src, dst in remap.items():
                permuted[ml == src] = dst
            out_a = watershed(grid, markers).labels
            out_b = watershed(grid, MarkerMap(permuted)).labels
            expect = np.zeros_like(out_a)
            for src, dst in remap.items():
                expect[out_a == src] = dst
            assert np.array_equal(out_b, expect)
            assert np.array_equal(out_b == 0, out_a == 0)

    def test_intensity_shift_invariance(self):
        rng = random.Random(13)
        for _ in range(40):
            rows = random_grid(rng, 5, 4, 0, 6)
            shifted = [[v + 3 for v in r] for r in rows]
            grid_a, markers = ws_pair(rows)
            grid_b = ImageGrid.from_list(5, 4, [v for r in shifted for v in r])
            out_a = watershed(grid_a, markers).labels
            out_b = watershed(grid_b, markers).labels
            assert np.array_equal(out_a, out_b)

    def test_oracle_equivalence_ties_corridors_and_thin_grids(self):
        # large plateaus with many ties, a one-pixel-wide corridor that floods
        # from its one marker one wave per pixel, and single rows and columns
        rng = random.Random(77)
        for _ in range(12):
            w, h = rng.randint(12, 16), rng.randint(12, 16)
            snake = serpentine(w, h, lambda: 1, lambda: rng.randint(2, 3))
            snake[0][0] = 0
            for rows in (random_grid(rng, w, h, 0, 3), snake, transposed(snake),
                         random_grid(rng, rng.randint(1, 40), 1),
                         random_grid(rng, 1, rng.randint(1, 40))):
                grid, markers = ws_pair(rows)
                got = watershed(grid, markers).labels.tolist()
                assert got == oracles.watershed_oracle(rows, markers.labels.tolist())

    @pytest.mark.parametrize("top", [1, 2, 2**31 - 1])
    def test_oracle_equivalence_at_both_ends_of_the_label_range(self, top):
        # labels are stored minus one in int32 and compared as uint32 too:
        # the largest marker label must stay a basin, never a sentinel
        rng = random.Random(top)
        for _ in range(60):
            rows = random_grid(rng, rng.randint(1, 7), rng.randint(1, 7))
            ml = regional_minima_markers(rows_grid(rows)).labels
            labels = np.where(ml == ml.max(), top, np.minimum(ml, 1))
            grid, markers = ws_pair(rows, labels.tolist())
            got = watershed(grid, markers).labels.tolist()
            assert got == oracles.watershed_oracle(rows, labels.tolist())

    def test_pocket_cut_off_at_its_level_floods_at_a_higher_one(self):
        # the 1 in the middle has no flooded neighbour at level 1; it is
        # reached in a later wave of level 5, after its ring
        rows = [[0, 5, 5, 5, 9],
                [5, 5, 1, 5, 9],
                [5, 5, 5, 5, 9],
                [9, 9, 9, 9, 0]]
        markers = [[1, 0, 0, 0, 0], [0] * 5, [0] * 5, [0, 0, 0, 0, 2]]
        grid, m = ws_pair(rows, markers)
        got = watershed(grid, m).labels.tolist()
        assert got == oracles.watershed_oracle(rows, markers)
        assert got[1][2] == 1

    def test_oracle_equivalence_with_sparse_markers(self):
        # markers on a few pixels, not on the minima, leave low pockets that
        # no basin reaches at their own level
        rng = random.Random(31)
        for _ in range(200):
            w, h = rng.randint(1, 9), rng.randint(1, 9)
            rows = random_grid(rng, w, h, 0, 6)
            labels = [[0] * w for _ in range(h)]
            for k in range(1, rng.randint(1, 3) + 1):
                labels[rng.randrange(h)][rng.randrange(w)] = k
            if not any(map(any, labels)):
                continue
            grid, markers = ws_pair(rows, labels)
            got = watershed(grid, markers).labels.tolist()
            assert got == oracles.watershed_oracle(rows, labels)

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_oracle_equivalence_across_first_wave_slices(self, monkeypatch, chunk):
        # a level's first wave is read `_WAVE_CHUNK` pixels at a time: plateaus
        # many slices long, basins that reach one level on both sides of a
        # slice edge, and grids with no pixel left to flood
        monkeypatch.setattr(raster, "_WAVE_CHUNK", chunk)
        rng = random.Random(chunk)
        cases = [
            ([[0, 5, 5, 5, 5, 0]], [[1, 0, 0, 0, 0, 2]]),
            ([[0, 5, 5, 5, 5, 5, 5, 5, 0]], [[1, 0, 0, 0, 0, 0, 0, 0, 2]]),
            ([[4, 4, 4], [4, 4, 4]], [[1, 2, 3], [4, 5, 6]]),
            ([[7] * 5] * 4, None),
        ]
        for _ in range(40):
            w, h = rng.randint(1, 12), rng.randint(1, 12)
            rows = random_grid(rng, w, h, 0, 2)
            labels = [[0] * w for _ in range(h)]
            for k in range(1, rng.randint(1, 4) + 1):
                labels[rng.randrange(h)][rng.randrange(w)] = k
            cases += [(rows, None), (rows, labels)]
        for rows, labels in cases:
            grid, markers = ws_pair(rows, labels)
            got = watershed(grid, markers).labels.tolist()
            assert got == oracles.watershed_oracle(rows, markers.labels.tolist())


# ---------------------------------------------------------------------------
# RLE

class TestRle:
    def test_decode_checks_total(self):
        with pytest.raises(RleError):
            rle_decode(MaskRLE(2, 2, (1, 1)))

    def test_roundtrip_1000(self):
        rng = random.Random(99)
        for _ in range(1000):
            w, h = rng.randint(1, 9), rng.randint(1, 9)
            bits = [rng.randint(0, 1) for _ in range(w * h)]
            back = rle_decode(MaskRLE(w, h, tuple(oracles.rle_oracle(bits))))
            assert back.shape == (h, w)
            assert [int(v) for v in back.ravel()] == bits

    @settings(max_examples=100, deadline=None)
    @given(masks)
    def test_roundtrip_property(self, rows):
        w, h = len(rows[0]), len(rows)
        bits = [int(v) for r in rows for v in r]
        rle = MaskRLE(w, h, tuple(oracles.rle_oracle(bits)))
        assert [int(v) for v in rle_decode(rle).ravel()] == bits


# ---------------------------------------------------------------------------
# contours and extraction

class TestContour:
    def test_single_pixel(self):
        mask = np.asarray([[True]])
        assert contour_of(mask) == [(0, 0)]

    def test_full_rect_clockwise_start_topleft(self):
        mask = np.ones((3, 4), dtype=bool)
        contour = contour_of(mask)
        assert contour[0] == (0, 0)
        # clockwise: the walk leaves eastward along the top row
        assert contour[1] == (1, 0)
        assert set(contour) == oracles.boundary_oracle(mask.tolist())

    def test_row_mask(self):
        mask = np.ones((1, 5), dtype=bool)
        assert contour_of(mask) == [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]

    def test_hole_boundary_included(self):
        mask = np.ones((5, 5), dtype=bool)
        mask[2, 2] = False
        contour = contour_of(mask)
        assert set(contour) == oracles.boundary_oracle(mask.tolist())
        assert len(contour) == len(set(contour))

    @settings(max_examples=120, deadline=None)
    @given(masks)
    def test_contour_set_equals_boundary_scan(self, rows):
        mask = np.asarray(rows, dtype=bool)
        expect = oracles.boundary_oracle([[int(v) for v in r] for r in rows])
        if not mask.any():
            return
        contour = contour_of(mask)
        assert set(contour) == expect
        assert len(contour) == len(set(contour))
        assert contour == oracles.moore_oracle(rows)

    def test_order_matches_oracle_on_shaped_masks(self):
        rng = random.Random(6)
        for _ in range(2000):
            rows = shaped_mask(rng, rng.randint(1, 12), rng.randint(1, 12))
            if any(map(any, rows)):
                assert contour_of(np.asarray(rows, dtype=bool)) == oracles.moore_oracle(rows)

    @pytest.mark.parametrize("side, bumps", [
        (23, ((1, 11), (21, 2), (11, 21))),
        # here a budget 8 steps larger (16) or smaller (21) changes the order
        (16, ((1, 2), (1, 5), (3, 14), (7, 1))),
        (21, ((9, 19), (13, 1), (16, 19), (19, 6))),
    ])
    def test_step_budget_cuts_hole_walk(self, side, bumps):
        # one-pixel rings with inward bumps at (row, col): the hole walk runs
        # out of steps before it closes
        rows = [[y in (0, side - 1) or x in (0, side - 1) for x in range(side)]
                for y in range(side)]
        for y, x in bumps:
            rows[y][x] = True
        contour = contour_of(np.asarray(rows))
        assert contour == oracles.moore_oracle(rows)
        if side == 23:  # a walk without the budget lists (2, 21) first
            assert contour.index((21, 11)) < contour.index((2, 21))

    @staticmethod
    def assert_walks_match(labels):
        """Every region's contour in a label map is the oracle's walk over
        the mask of that region."""
        labels = np.asarray(labels, dtype=np.int32)
        segs = extract_segments(SegmentMap(labels))
        assert [s.id for s in segs] == sorted(set(labels[labels > 0].tolist()))
        for seg in segs:
            assert list(seg.contour) == oracles.moore_oracle((labels == seg.id).tolist())

    @pytest.mark.parametrize("labels", [
        [[1]],
        [[1, 0, 1], [0, 0, 0], [1, 0, 1]],
        [[2, 2, 2], [2, 1, 2], [2, 2, 2]],
        [[1, 0, 0, 1], [0, 0, 0, 0], [1, 1, 0, 1]],
    ])
    def test_isolated_pixels_have_code_zero(self, labels):
        self.assert_walks_match(labels)

    @pytest.mark.parametrize("labels", [
        [[1] * 5] * 5,
        [[1, 1, 1, 1, 1], [1, 0, 0, 0, 1], [1, 0, 2, 0, 1], [1, 0, 0, 0, 1], [1, 1, 1, 1, 1]],
        [[0, 0, 1, 0, 0], [0, 0, 1, 0, 0], [1, 1, 1, 1, 1], [0, 0, 1, 0, 0], [0, 0, 1, 0, 0]],
        [[1, 1, 1, 1], [1, 2, 2, 1], [1, 1, 1, 1], [1, 3, 1, 1], [1, 1, 1, 1]],
        [[1], [1], [1]],
    ])
    def test_regions_touching_every_frame_edge(self, labels):
        self.assert_walks_match(labels)

    @pytest.mark.parametrize("labels", [
        [[1, 2], [2, 1]],
        [[(x + y) % 2 + 1 for x in range(6)] for y in range(5)],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
        [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]],
        [[1, 0, 1, 0, 1], [0, 1, 0, 1, 0], [1, 0, 2, 0, 1], [0, 1, 0, 1, 0], [1, 0, 1, 0, 1]],
    ])
    def test_regions_that_touch_only_diagonally(self, labels):
        self.assert_walks_match(labels)


class TestExtractSegments:
    def test_full_frame(self):
        seg = extract_segments(SegmentMap(np.ones((2, 3), dtype=np.int32)))
        assert len(seg) == 1
        assert seg[0].bbox.as_list() == [0, 0, 3, 2]
        assert seg[0].area == 6

    def test_ridge_example(self):
        segmap = SegmentMap(np.asarray([[1, 1, 0, 2, 2]], dtype=np.int32))
        segs = extract_segments(segmap)
        assert [s.id for s in segs] == [1, 2]
        assert [s.bbox.as_list() for s in segs] == [[0, 0, 2, 1], [3, 0, 2, 1]]
        assert [s.area for s in segs] == [2, 2]

    def test_random_maps_area_and_contour(self):
        rng = random.Random(21)
        for _ in range(60):
            w, h = rng.randint(1, 7), rng.randint(1, 7)
            rows = random_grid(rng, w, h)
            grid, markers = ws_pair(rows)
            segmap = watershed(grid, markers)
            for seg in extract_segments(segmap):
                region = segmap.labels == seg.id
                assert seg.area == int(region.sum())
                local = region[seg.bbox.y : seg.bbox.y + seg.bbox.h,
                               seg.bbox.x : seg.bbox.x + seg.bbox.w]
                expect = {(x + seg.bbox.x, y + seg.bbox.y)
                          for (x, y) in oracles.boundary_oracle(local.tolist())}
                assert set(seg.contour) == expect
                # mask decodes back to the region
                assert np.array_equal(rle_decode(seg.mask), local)

    def test_line_pixels_in_no_segment(self):
        segmap = SegmentMap(np.asarray([[1, 0, 2]], dtype=np.int32))
        segs = extract_segments(segmap)
        covered = set()
        for s in segs:
            dec = rle_decode(s.mask)
            for yy in range(dec.shape[0]):
                for xx in range(dec.shape[1]):
                    if dec[yy, xx]:
                        covered.add((xx + s.bbox.x, yy + s.bbox.y))
        assert (1, 0) not in covered


class TestBoundingBox:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0, 1)

    def test_fits(self):
        assert BoundingBox(1, 1, 2, 2).fits(3, 3)
        assert not BoundingBox(1, 1, 3, 2).fits(3, 3)


def test_make_pgm_helper_is_valid():
    grid = decode_pgm(make_pgm([[1, 2], [3, 4]]))
    assert grid.tolist() == [1, 2, 3, 4]
