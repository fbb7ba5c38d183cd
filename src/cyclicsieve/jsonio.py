"""Canonical JSON output, payload schemas, and the result cache.

All numeric results are serialized as decimal strings so that consumers
limited to 64-bit (or 53-bit) integers never silently corrupt a count.
Output is canonical: keys sorted, fixed separators, so equal inputs give
byte-identical bytes.  A payload becomes text in one place, in
ResultCache.fetch, and that text is what is stored, hashed and printed.

Cached results are stored one file per cache key; the key is a stable
hash of (command, parameters, source digest), where the source digest
hashes the package's own code and schemas, so a change to either never
reads an entry the old code wrote.  An entry is one header line, then the
payload text.  The header holds command, parameters, source digest, key
and payload_sha256, the sha256 of the exact payload text; canonical JSON
is ASCII with no raw newline, so the first newline splits the two.

What is checked where: a payload is schema-validated before it is
written (and, with the cache disabled, before it is returned).  On read,
an entry is trusted on its key, its command and its payload hash alone:
the key already pins the code and schemas that validated it, and the
hash catches a torn or edited payload.  jsonschema is therefore imported
only when a new payload is validated, never on a cache hit, and a hit is
returned as the stored text, never decoded and encoded again.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import sys
import tempfile
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Optional

ENV_CACHE_DIR = "CYCLIC_SIEVE_CACHE"


def dumps_canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def source_digest(package_dir: Path) -> str:
    """sha256 over the *.py and schemas/*.json files of a package directory.

    Files are taken in sorted order of their relative paths; each one
    contributes its path, its length and its bytes.
    """
    digest = hashlib.sha256()
    paths = [*package_dir.glob("*.py"), *package_dir.glob("schemas/*.json")]
    for name in sorted(path.relative_to(package_dir).as_posix() for path in paths):
        data = (package_dir / name).read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@functools.cache
def package_digest() -> str:
    """source_digest of this cyclicsieve package, computed once per process."""
    return source_digest(Path(__file__).resolve().parent)


def cache_key(command: str, params: dict, source: str) -> str:
    """The cache key of (command, params) under the package source digest `source`."""
    return text_hash(dumps_canonical({"command": command, "params": params, "source": source}))


def validate_payload(name: str, payload: Any) -> None:
    import jsonschema  # imported here: a cache hit never needs it

    schema = resources.files("cyclicsieve").joinpath(f"schemas/{name}.schema.json").read_text()
    jsonschema.validate(payload, json.loads(schema))


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "cyclicsieve"


class ResultCache:
    """File-per-key result cache.

    A payload is schema-validated before it is written; a hit is checked
    by key, command and payload hash, not against the schema again.
    """

    def __init__(self, directory: Optional[Path] = None, enabled: bool = True):
        self.directory = Path(directory) if directory else default_cache_dir()
        self.enabled = enabled

    def fetch(self, command: str, params: dict, schema: str, compute: Callable[[], Any]) -> str:
        """Return the canonical JSON text of the payload for (command, params).

        This is the one place a payload is validated against `schema` and
        encoded: a computed payload is validated, then encoded once, and
        that text is stored, hashed and returned (with the cache disabled,
        only returned).  A hit returns the stored payload text as it is,
        checked in _read_valid by key, command and payload hash only; it
        was validated when it was written, by the same code and schemas its
        key hashes.  An entry that is corrupt or cannot be read, or that
        cannot be written, leaves one JSON warning on stderr, and the
        computed payload is returned all the same.
        """
        if not self.enabled:
            payload = compute()
            validate_payload(schema, payload)
            return dumps_canonical(payload)
        source = package_digest()
        key = cache_key(command, params, source)
        path = self.directory / f"{key}.json"
        warned = False
        if path.exists():
            text = self._read_valid(path, key, command)
            if text is not None:
                return text
            warned = True
        payload = compute()
        validate_payload(schema, payload)
        text = dumps_canonical(payload)
        header = dumps_canonical(
            {"command": command, "params": params, "source": source, "key": key, "payload_sha256": text_hash(text)}
        )
        try:
            self._write(path, f"{header}\n{text}")
        except OSError as exc:
            if not warned:  # an entry already reported as corrupt gets no second warning
                print(
                    dumps_canonical({"warning": f"cannot write cache entry {path.name}: {exc}", "action": "running without cache"}),
                    file=sys.stderr,
                )
        return text

    def _write(self, path: Path, entry: str) -> None:
        """Write through a temp file of this writer's own, then rename it into place."""
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(entry)
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def _read_valid(self, path: Path, key: str, command: str) -> Optional[str]:
        """The payload text of the entry at `path`, or None (with a warning) if it fails a check."""
        try:
            header_line, _, text = path.read_text(encoding="ascii").partition("\n")
            header = json.loads(header_line)
            if not isinstance(header, dict) or header.get("key") != key or header.get("command") != command:
                raise ValueError("cache key mismatch")
            if text_hash(text) != header.get("payload_sha256"):
                raise ValueError("payload hash mismatch")
            return text
        except (OSError, ValueError) as exc:
            print(
                dumps_canonical({"warning": f"corrupted cache entry {path.name}: {exc}", "action": "recomputing"}),
                file=sys.stderr,
            )
            return None
