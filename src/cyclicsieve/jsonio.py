"""Canonical JSON output, payload schemas, and the result cache.

All numeric results are serialized as decimal strings so that consumers
limited to 64-bit (or 53-bit) integers never silently corrupt a count.
Output is canonical: keys sorted, fixed separators, so equal inputs give
byte-identical bytes.

Cached results are stored one file per cache key; the key is a stable
hash of (command, parameters, source digest), where the source digest
hashes the package's own code and schemas, so a change to either never
reads an entry the old code wrote.  Each manifest stores a hash of its
payload, so corrupted or unreadable entries are detected and recomputed.

What is checked where: a payload is schema-validated before it is
written (and, with the cache disabled, before it is returned).  On read,
an entry is trusted on its key, its command and its payload hash alone:
the key already pins the code and schemas that validated it, and the
hash catches a torn or edited payload.  jsonschema is therefore imported
only when a new payload is validated, never on a cache hit.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Optional

ENV_CACHE_DIR = "CYCLIC_SIEVE_CACHE"


def dumps_canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def stable_hash(payload: Any) -> str:
    return hashlib.sha256(dumps_canonical(payload).encode("ascii")).hexdigest()


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


@dataclass(frozen=True)
class RunManifest:
    """One cached run: command, parameters, source digest, key and payload."""

    command: str
    params: dict
    source: str
    payload: Any

    @property
    def key(self) -> str:
        return stable_hash({"command": self.command, "params": self.params, "source": self.source})

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "source": self.source,
            "key": self.key,
            "payload": self.payload,
            "payload_sha256": stable_hash(self.payload),
        }


def load_schema(name: str) -> dict:
    text = resources.files("cyclicsieve").joinpath(f"schemas/{name}.schema.json").read_text()
    return json.loads(text)


def validate_payload(name: str, payload: Any) -> None:
    import jsonschema  # imported here: a cache hit never needs it

    jsonschema.validate(payload, load_schema(name))


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

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def fetch(self, command: str, params: dict, schema: str, compute: Callable[[], Any]) -> Any:
        """Return the payload for (command, params).

        This is the one place a payload is validated against `schema`: a
        computed payload before it is stored or, with the cache disabled,
        returned.  A hit is checked in _read_valid by key, command and
        payload hash only; it was validated when it was written, by the
        same code and schemas its key hashes.  An entry that is corrupt or
        cannot be read, or that cannot be written, leaves one JSON warning
        on stderr, and the computed payload is returned all the same.
        """
        if not self.enabled:
            payload = compute()
            validate_payload(schema, payload)
            return payload
        probe = RunManifest(command, params, package_digest(), None)
        path = self._path(probe.key)
        warned = False
        if path.exists():
            payload = self._read_valid(path, probe.key, command, schema)
            if payload is not None:
                return payload
            warned = True
        payload = compute()
        validate_payload(schema, payload)
        try:
            self._write(path, RunManifest(command, params, probe.source, payload))
        except OSError as exc:
            if not warned:  # an entry already reported as corrupt gets no second warning
                print(
                    dumps_canonical({"warning": f"cannot write cache entry {path.name}: {exc}", "action": "running without cache"}),
                    file=sys.stderr,
                )
        return payload

    def _write(self, path: Path, manifest: RunManifest) -> None:
        """Write through a temp file of this writer's own, then rename it into place."""
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(dumps_canonical(manifest.to_json()))
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def _read_valid(self, path: Path, key: str, command: str, schema: str) -> Optional[Any]:
        """The payload of the entry at `path`, or None (with a warning) if it fails a check.

        `schema` is not consulted: the entry was validated before it was
        written, and its key and payload hash prove it is that entry.
        """
        try:
            data = json.loads(path.read_text())
            if not isinstance(data, dict) or data.get("key") != key or data.get("command") != command:
                raise ValueError("cache key mismatch")
            payload = data["payload"]
            if stable_hash(payload) != data.get("payload_sha256"):
                raise ValueError("payload hash mismatch")
            return payload
        except (OSError, ValueError, KeyError) as exc:
            print(
                dumps_canonical({"warning": f"corrupted cache entry {path.name}: {exc}", "action": "recomputing"}),
                file=sys.stderr,
            )
            return None
