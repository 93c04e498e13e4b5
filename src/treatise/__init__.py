"""Segmentation, knowledge-enriched labeling, retrieval, and evaluation for
illustrations in historical shipbuilding treatises."""

import json

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
