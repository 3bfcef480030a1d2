"""Advisory on-disk cache for computed JSON payloads.

One kind of entry, the scheme document of a level, keyed by presentation
fingerprint, level and ray; ``scheme`` and ``decompose`` both read it.
The cache is advisory both ways: anything missing, unreadable or failing
revalidation is recomputed and overwritten, and a store that fails is
dropped without failing the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from pathlib import Path

from .tree import Ray
from .wreath import WreathPresentation

ENV_VAR = "SELFSIM_CACHE_DIR"


def cache_dir_from_env() -> Path | None:
    value = os.environ.get(ENV_VAR)
    return Path(value) if value else None


def cache_key(pres: WreathPresentation, n: int, ray: Ray) -> str:
    blob = f"{pres.fingerprint()}|{n}|{ray}|scheme".encode()
    return hashlib.sha256(blob).hexdigest()


def load(directory: Path, key: str) -> dict | None:
    path = directory / f"{key}.json"
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def store(directory: Path, key: str, payload: dict) -> None:
    """Write an entry; a directory that can't be written just skips the store.

    Each writer fills its own temporary file, so concurrent writers of one
    key never interleave; the last rename wins.
    """
    tmp = directory / f"{key}.{os.urandom(8).hex()}.tmp"
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with open(tmp, "x", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=False)
            fh.write("\n")
        os.replace(tmp, directory / f"{key}.json")
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
