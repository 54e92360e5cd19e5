"""Helpers shared by the test modules."""

import hashlib


def sha256_file(path) -> str:
    """SHA-256 hex digest of the file at path."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()
