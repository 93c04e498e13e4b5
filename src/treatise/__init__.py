"""Segmentation, knowledge-enriched labeling, retrieval, and evaluation for
illustrations in historical shipbuilding treatises."""

import json
import os
import tempfile

__version__ = "0.1.0"


def parse_json(data: bytes | str, error=ValueError, **kwargs):
    """The JSON value of `data`, bytes decoded as UTF-8; bytes that are not
    UTF-8, text that is not JSON, or JSON nested too deeply for the decoder's
    recursion raise `error("invalid JSON: ...")`.
    Keyword arguments go to the decoder, e.g. `object_pairs_hook`."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data, **kwargs)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise error(f"invalid JSON: {exc}") from exc


def canonical_json_bytes(obj) -> bytes:
    """The canonical form: UTF-8, object keys sorted ascending by code point,
    no insignificant whitespace, so equal values encode to identical bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def atomic_write(destination, data) -> None:
    """Write bytes, or an iterable of byte chunks, so that the file appears
    whole or not at all: a temp file in the same directory, renamed over the
    destination."""
    destination = os.fspath(destination)
    directory = os.path.dirname(destination) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            if isinstance(data, bytes):
                fh.write(data)
            else:
                fh.writelines(data)
        os.replace(tmp, destination)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
