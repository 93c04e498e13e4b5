"""Independent reference implementations used to cross-check the package.

Everything here is written as plainly as possible (pure-Python scans,
no numpy tricks, no code shared with src/) so that agreement between the
two is evidence, not tautology.
"""

import math
from itertools import permutations


# ---------------------------------------------------------------------------
# raster


def sobel_oracle(pixels):
    """Per-pixel 3x3 Sobel magnitude with edge replication.

    pixels: list of rows of ints. Returns list of rows of ints in [0,255].
    Each axis response is divided by 4 (kernel weight sum of one sign),
    magnitude is the Euclidean norm, rounded half-up.
    """
    h = len(pixels)
    w = len(pixels[0])
    kx = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
    ky = [[-1, -2, -1], [0, 0, 0], [1, 2, 1]]

    def at(x, y):
        x = min(max(x, 0), w - 1)
        y = min(max(y, 0), h - 1)
        return pixels[y][x]

    out = []
    for y in range(h):
        row = []
        for x in range(w):
            gx = gy = 0
            for j in range(3):
                for i in range(3):
                    v = at(x + i - 1, y + j - 1)
                    gx += kx[j][i] * v
                    gy += ky[j][i] * v
            mag = math.hypot(gx / 4.0, gy / 4.0)
            row.append(min(255, int(math.floor(mag + 0.5))))
        out.append(row)
    return out


def _plateaus(pixels):
    """4-connected components of equal intensity, row-major discovery order."""
    h = len(pixels)
    w = len(pixels[0])
    seen = [[False] * w for _ in range(h)]
    comps = []
    for y in range(h):
        for x in range(w):
            if seen[y][x]:
                continue
            v = pixels[y][x]
            stack = [(x, y)]
            seen[y][x] = True
            comp = []
            while stack:
                cx, cy = stack.pop()
                comp.append((cx, cy))
                for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0)):
                    nx, ny = cx + dx, cy + dy
                    if 0 <= nx < w and 0 <= ny < h and not seen[ny][nx] \
                            and pixels[ny][nx] == v:
                        seen[ny][nx] = True
                        stack.append((nx, ny))
            comps.append((v, comp))
    return comps


def minima_oracle(pixels):
    """Regional minima as a label grid (0 = not a minimum, 1..K row-major)."""
    h = len(pixels)
    w = len(pixels[0])
    labels = [[0] * w for _ in range(h)]
    nxt = 1
    for v, comp in _plateaus(pixels):
        is_min = True
        for (cx, cy) in comp:
            for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0)):
                nx, ny = cx + dx, cy + dy
                if 0 <= nx < w and 0 <= ny < h and pixels[ny][nx] < v:
                    is_min = False
                    break
            if not is_min:
                break
        if is_min:
            for (cx, cy) in comp:
                labels[cy][cx] = nxt
            nxt += 1
    return labels


def hminima_oracle(pixels, h_depth):
    """Reconstruction-by-erosion of (f + h) above f via naive full sweeps."""
    hgt = len(pixels)
    wdt = len(pixels[0])
    g = [[min(255, pixels[y][x] + h_depth) for x in range(wdt)] for y in range(hgt)]
    changed = True
    while changed:
        changed = False
        for y in range(hgt):
            for x in range(wdt):
                # geodesic erosion step: min over self and 4-neighbors, floored by f
                lo = g[y][x]
                for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0)):
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < wdt and 0 <= ny < hgt:
                        lo = min(lo, g[ny][nx])
                lo = max(lo, pixels[y][x])
                if lo != g[y][x]:
                    g[y][x] = lo
                    changed = True
    return g


def watershed_oracle(relief, markers):
    """Level-by-level immersion flooding, wave-synchronous, 4-connected.

    relief: list of rows of ints. markers: same-shape label grid, 0 =
    unmarked. Returns a label grid: 0 = line-or-unreached, k = region k.
    A pixel claimed in one wave by two or more distinct labels becomes a
    line pixel once and for all.
    """
    h = len(relief)
    w = len(relief[0])
    label = [[markers[y][x] for x in range(w)] for y in range(h)]
    line = [[False] * w for _ in range(h)]
    for level in sorted({relief[y][x] for y in range(h) for x in range(w)}):
        while True:
            claims = {}
            for y in range(h):
                for x in range(w):
                    if label[y][x] != 0 or line[y][x] or relief[y][x] > level:
                        continue
                    found = set()
                    for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0)):
                        nx, ny = x + dx, y + dy
                        if 0 <= nx < w and 0 <= ny < h and label[ny][nx] > 0:
                            found.add(label[ny][nx])
                    if found:
                        claims[(x, y)] = found
            if not claims:
                break
            for (x, y), found in claims.items():
                if len(found) >= 2:
                    line[y][x] = True
                else:
                    label[y][x] = found.pop()
    return label


def boundary_oracle(mask):
    """mask: list of rows of 0/1. Returns the set of (x, y) border pixels."""
    h = len(mask)
    w = len(mask[0])
    out = set()
    for y in range(h):
        for x in range(w):
            if not mask[y][x]:
                continue
            for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0)):
                nx, ny = x + dx, y + dy
                if not (0 <= nx < w and 0 <= ny < h) or not mask[ny][nx]:
                    out.add((x, y))
                    break
    return out


_N8_CLOCKWISE = ((0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1))


def moore_oracle(mask):
    """mask: list of rows of 0/1 (or a 2-D array). Returns the boundary
    pixels as (x, y) in clockwise Moore-walk order: each walk starts from the
    topmost-leftmost untraced boundary pixel, so the outer border comes before
    the holes; a pixel is listed at its first visit; a walk stops at its first
    repeated (pixel, backtrack) state or after 8 * (untraced boundary pixels
    + 1) steps, whichever comes first."""
    hgt = len(mask)
    wdt = len(mask[0])

    def inside(x, y):
        return 0 <= x < wdt and 0 <= y < hgt and mask[y][x]

    remaining = set(boundary_oracle(mask))
    ordered = []
    traced = set()
    while remaining:
        start = min(remaining, key=lambda p: (p[1], p[0]))
        # initial backtrack: first non-region 4-neighbor, clockwise from north
        back = None
        for dx, dy in _N8_CLOCKWISE[::2]:
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
            bidx = _N8_CLOCKWISE.index((bt[0] - cur[0], bt[1] - cur[1]))
            nxt = None
            last_out = bt
            for k in range(1, 9):
                dx, dy = _N8_CLOCKWISE[(bidx + k) % 8]
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


def rle_oracle(bits):
    """Row-major run lengths of a flat 0/1 list, alternating zero-run and
    one-run, starting with a (possibly empty) zero-run."""
    counts = []
    current = 0
    run = 0
    for b in bits:
        if b == current:
            run += 1
        else:
            counts.append(run)
            current = b
            run = 1
    counts.append(run)
    return counts


def validate_geometry_oracle(segments):
    """segments: (x, y, w, h, counts, contour) per segment, with non-negative
    run counts summing to w * h. Decodes each mask to rows of bits and yields
    (area, tight, codes) per segment: the set pixel count, whether the set
    pixels touch all four box edges, and per contour point 0 when it is not
    a set pixel, 1 when it is an interior one, 2 when it is a 4-boundary one."""
    for x0, y0, w, h, counts, contour in segments:
        bits = []
        for k, run in enumerate(counts):
            bits.extend([k % 2] * run)
        mask = [bits[r * w:(r + 1) * w] for r in range(h)]
        area = sum(bits)
        tight = (any(mask[0]) and any(mask[-1])
                 and any(row[0] for row in mask) and any(row[-1] for row in mask))
        border = boundary_oracle(mask)
        codes = []
        for cx, cy in contour:
            lx, ly = cx - x0, cy - y0
            if not (0 <= lx < w and 0 <= ly < h) or not mask[ly][lx]:
                codes.append(0)
            elif (lx, ly) in border:
                codes.append(2)
            else:
                codes.append(1)
        yield area, tight, codes


def box_iou_oracle(a, b):
    """IoU of two [x, y, w, h] boxes by enumerating integer cells."""
    cells_a = {(x, y) for x in range(a[0], a[0] + a[2])
               for y in range(a[1], a[1] + a[3])}
    cells_b = {(x, y) for x in range(b[0], b[0] + b[2])
               for y in range(b[1], b[1] + b[3])}
    union = cells_a | cells_b
    if not union:
        return 0.0
    return len(cells_a & cells_b) / len(union)


# ---------------------------------------------------------------------------
# retrieval


def bm25_oracle(docs, query_terms, k1=1.2, b=0.75):
    """docs: {doc_id: list of tokens}. Returns {doc_id: score} for docs
    matching at least one query term (OR semantics)."""
    n_docs = len(docs)
    avgdl = sum(len(t) for t in docs.values()) / n_docs if n_docs else 1.0
    if avgdl == 0:
        avgdl = 1.0
    scores = {}
    for term in set(query_terms):
        containing = [d for d, toks in docs.items() if term in toks]
        if not containing:
            continue
        idf = math.log((n_docs - len(containing) + 0.5) / (len(containing) + 0.5) + 1.0)
        for d in containing:
            tf = docs[d].count(term)
            dl = len(docs[d])
            s = idf * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * dl / avgdl))
            scores[d] = scores.get(d, 0.0) + s
    return scores


def index_from_obj_oracle(doc):
    """A snapshot object checked entry by entry: (docs, postings) as fresh
    dicts, or ValueError naming the first bad entry."""
    def is_count(value):
        return isinstance(value, int) and not isinstance(value, bool) and value >= 0

    if not isinstance(doc, dict) or not isinstance(doc.get("docs"), dict) \
            or not isinstance(doc.get("postings"), dict):
        raise ValueError("snapshot must carry docs and postings objects")
    for doc_id, n in doc["docs"].items():
        if not is_count(n):
            raise ValueError(f"length of document {doc_id!r} must be a non-negative integer")
    docs = dict(doc["docs"])
    postings = {}
    for tok, plist in doc["postings"].items():
        if not isinstance(plist, dict):
            raise ValueError(f"postings for {tok!r} must be an object")
        for doc_id, tf in plist.items():
            if doc_id not in docs:
                raise ValueError(f"posting for unknown document {doc_id!r}")
            if not is_count(tf):
                raise ValueError(f"tf of {doc_id!r} under {tok!r} must be a non-negative integer")
        postings[tok] = dict(plist)
    return docs, postings


# ---------------------------------------------------------------------------
# ontology


def reachability_oracle(parents, node):
    """parents: {id: list of parent ids}. Transitive closure by saturation."""
    reach = set(parents.get(node, ()))
    changed = True
    while changed:
        changed = False
        for n in list(reach):
            for p in parents.get(n, ()):
                if p not in reach:
                    reach.add(p)
                    changed = True
    reach.discard(node)
    return reach


# ---------------------------------------------------------------------------
# evaluation


def greedy_match_oracle(preds, truths, threshold, iou):
    """preds: list of (bbox, confidence). truths: list of bbox.

    Returns list of (pred_index, truth_index). Predictions take turns in
    confidence-descending order (document order on ties); each takes the
    unmatched truth with maximal IoU >= threshold, lower index on ties.
    """
    order = sorted(range(len(preds)), key=lambda i: (-preds[i][1], i))
    used = set()
    pairs = []
    for i in order:
        best_j, best_v = None, -1.0
        for j, tbox in enumerate(truths):
            if j in used:
                continue
            v = iou(preds[i][0], tbox)
            if v >= threshold and v > best_v:
                best_j, best_v = j, v
        if best_j is not None:
            used.add(best_j)
            pairs.append((i, best_j))
    return pairs


def exhaustive_match_oracle(preds, truths, threshold, iou):
    """Best one-to-one assignment by (pair count, total IoU), brute force.

    Only feasible for tiny instances. Returns (count, total_iou).
    """
    n, m = len(preds), len(truths)
    best = (0, 0.0)
    indices = list(range(m)) + [None] * n  # None = unmatched
    for perm in set(permutations(indices, n)):
        used = set()
        ok = True
        count = 0
        total = 0.0
        for i, j in enumerate(perm):
            if j is None:
                continue
            if j in used:
                ok = False
                break
            v = iou(preds[i][0], truths[j])
            if v < threshold:
                ok = False
                break
            used.add(j)
            count += 1
            total += v
        if ok and (count, total) > best:
            best = (count, total)
    return best


# ---------------------------------------------------------------------------
# lexicon


def token_filter_oracle(text, stopwords):
    """Naive split-on-non-letters + stopword filter + first-wins dedup."""
    words = []
    cur = []
    for ch in text + " ":
        if ch.isalpha():
            cur.append(ch)
        else:
            if cur:
                words.append("".join(cur))
                cur = []
    out = []
    seen = set()
    for word in words:
        norm = _normalize_word(word)
        if not norm or norm in stopwords:
            continue
        if norm not in seen:
            seen.add(norm)
            out.append(norm)
    return out


def _normalize_word(word):
    import unicodedata

    decomposed = unicodedata.normalize("NFKD", word)
    base = "".join(c for c in decomposed if not unicodedata.combining(c)).lower()
    for suffix in ("es", "s"):
        if base.endswith(suffix) and len(base) - len(suffix) >= 3:
            if suffix == "es" and not base[:-2].endswith(("ss", "x", "z", "ch", "sh")):
                continue
            if suffix == "s" and base.endswith("ss"):
                continue
            return base[: -len(suffix)]
    return base
