"""Reference outcomes of every pool document, recorded by ``record.py``."""

from __future__ import annotations

import gzip
import json
import os

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def path(workload: str) -> str:
    return os.path.join(REFS_DIR, f"{workload}.json.gz")


def load(workload: str) -> dict:
    with gzip.open(path(workload), "rt") as fh:
        return json.load(fh)


def save(workload: str, data: dict) -> None:
    os.makedirs(REFS_DIR, exist_ok=True)
    text = json.dumps(data, indent=1, sort_keys=True) + "\n"
    with open(path(workload), "wb") as raw:
        # mtime 0 keeps the file byte-identical when the references are
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(text.encode())
