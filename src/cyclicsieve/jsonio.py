"""Canonical JSON output, payload schemas, the result cache, and to_stderr, the one stderr writer.

Output is canonical: keys sorted, fixed separators, so equal inputs give
byte-identical bytes.  A payload becomes text in one place, in
ResultCache.fetch, and that text is what is stored, hashed and printed.

Cached results are stored one file per cache key; the key is a stable
hash of (command, parameters, source digest), where the source digest
hashes the package's own code and schemas, so a change to either never
reads an entry the old code wrote.  An entry is one header line, then the
payload text.  The header holds command, parameters, source digest, key,
payload_sha256 (the sha256 of the exact payload text) and the verdict
(null, or the JSON reason the command fails with); canonical JSON is ASCII
with no raw newline, so the first newline splits the two.

What is checked where: a new payload is checked against its schema
before it is written (and, with the cache disabled, before it is
returned), by the small checker below: each schemas/*.json, read from
the package directory that the source digest hashes, is compiled once
per process into one closure per schema node, over exactly the keywords
those schemas use, and a mismatch raises SchemaError with its JSON path.
The runtime never imports jsonschema; the tests use it as the oracle the
checker must agree with.  On read, an entry is trusted on its key, its
command, its payload hash and a verdict of the right type alone: the key
already pins the code and schemas that checked it, and the hash catches a
torn or edited payload.  A hit is returned as the stored text with the
header's verdict, never decoded and encoded again.

sha256 comes from the interpreter's builtin module: _sha2 on CPython
3.12+, _sha256 on 3.10-3.11.  hashlib loads _hashlib, and with it OpenSSL's
libcrypto (about 3.5 MB of resident memory), at import whatever is asked
of it, and falls back to these same builtin modules itself; so hashlib is
imported only in a build without them.  The digests are the same either
way.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
import sys
from pathlib import Path
from typing import Any, Callable, Optional

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

ENV_CACHE_DIR = "CYCLIC_SIEVE_CACHE"
_PACKAGE_DIR = Path(__file__).resolve().parent


def dumps_canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def to_stderr(line: str) -> None:
    """Write `line` to stderr, or lose it if stderr is None (fd 2 closed at start) or cannot be written."""
    if sys.stderr is not None:  # print(file=None) would write to stdout
        try:
            print(line, file=sys.stderr, flush=True)
        except OSError:  # dropped, or the bytes left in its buffer fail again at exit and the exit code becomes 120
            sys.stderr = None


def text_hash(text: str) -> str:
    return sha256(text.encode("ascii")).hexdigest()


def source_digest(package_dir: Path) -> str:
    """sha256 over the *.py and schemas/*.json files of a package directory.

    Files are taken in sorted order of their relative paths; each one
    contributes its path, its length and its bytes.
    """
    digest = sha256()
    paths = [*package_dir.glob("*.py"), *package_dir.glob("schemas/*.json")]
    for name in sorted(path.relative_to(package_dir).as_posix() for path in paths):
        data = (package_dir / name).read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@functools.cache
def package_digest() -> str:
    """source_digest of this cyclicsieve package, computed once per process."""
    return source_digest(_PACKAGE_DIR)


def cache_key(command: str, params: dict, source: str) -> str:
    """The cache key of (command, params) under the package source digest `source`."""
    return text_hash(dumps_canonical({"command": command, "params": params, "source": source}))


class SchemaError(Exception):
    """A payload that does not match its schema, or a schema the checker cannot read.

    Either is a fault of the program, not of its arguments, so this is not a
    ValueError (which the CLI reports as a usage error).  `path` holds the
    object keys and array indices from the root to the offending value.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason
        self.path: list = []

    def __str__(self) -> str:
        where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in self.path)
        return f"${where}: {self.reason}"


def _brief(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


# JSON Schema draft 2020-12 types: a bool is not an integer, an integral
# float is, and an array is a list.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)) or (isinstance(v, float) and v.is_integer()),
}
_ANNOTATIONS = frozenset({"$schema", "$id", "title", "description"})
_KEYWORDS = frozenset({"type", "pattern", "enum", "oneOf", "properties", "required", "additionalProperties", "items"})


def compile_schema(schema: dict) -> Callable[[Any], None]:
    """A check that raises SchemaError where a value breaks `schema`.

    It reads exactly the keywords the package's schemas use, with draft
    2020-12 meaning: type, pattern (re.search, strings only), enum (a bool
    equals only a bool), oneOf (exactly one alternative matches),
    required, properties, additionalProperties (false or a schema) and
    items.  Annotations are skipped; any other keyword, type or a
    non-scalar enum option raises here, so a schema edit the checker would
    not enforce fails at once.  Each schema node becomes one closure over
    its keywords, read and compiled here once; the closure tests them in
    the order above and prefixes the key or index of a failing member to
    the error's path.
    """
    unknown = sorted(schema.keys() - _KEYWORDS - _ANNOTATIONS)
    if unknown:
        raise SchemaError(f"unsupported schema keyword {unknown[0]!r}")
    type_name = schema.get("type")
    is_type = _TYPES.get(type_name)
    if "type" in schema and is_type is None:
        raise SchemaError(f"unsupported schema type {type_name!r}")
    pattern = schema.get("pattern")
    search = re.compile(pattern).search if "pattern" in schema else None
    options = schema.get("enum")
    if options is not None and not all(o is None or isinstance(o, (str, int, float)) for o in options):
        raise SchemaError("unsupported non-scalar enum option")
    alternatives = [_compile_at(f"oneOf[{i}]", s) for i, s in enumerate(schema.get("oneOf", ()))]
    required = schema.get("required", ())
    properties = {key: _compile_at(f"properties.{key}", s) for key, s in schema.get("properties", {}).items()}
    additional = schema.get("additionalProperties", True)
    if not isinstance(additional, bool):
        additional = _compile_at("additionalProperties", additional)
    check_item = _compile_at("items", schema["items"]) if "items" in schema else None

    def check(value):
        if is_type is not None and not is_type(value):
            raise SchemaError(f"{_brief(value)} is not of type {type_name!r}")
        if search is not None and isinstance(value, str) and not search(value):
            raise SchemaError(f"{_brief(value)} does not match {pattern!r}")
        if options is not None and not any(value == o and isinstance(value, bool) == isinstance(o, bool) for o in options):
            raise SchemaError(f"{_brief(value)} is not one of {options}")
        if alternatives:
            matched = 0
            for alternative in alternatives:
                try:
                    alternative(value)
                    matched += 1
                except SchemaError:
                    pass
            if matched != 1:
                raise SchemaError(f"{_brief(value)} matches {matched} of the {len(alternatives)} oneOf alternatives")
        if isinstance(value, dict):
            for key in required:
                if key not in value:
                    raise SchemaError(f"missing required property {key!r}")
            for key, member in value.items():
                member_check = properties.get(key, additional)
                if member_check is False:
                    raise SchemaError(f"unexpected property {key!r}")
                if member_check is not True:
                    try:
                        member_check(member)
                    except SchemaError as exc:
                        exc.path.insert(0, key)
                        raise
        elif check_item is not None and isinstance(value, list):
            try:
                for index, item in enumerate(value):
                    check_item(item)
            except SchemaError as exc:
                exc.path.insert(0, index)
                raise

    return check


def _compile_at(where: str, schema: dict) -> Callable[[Any], None]:
    """compile_schema of a subschema; an error names its place in the parent."""
    try:
        return compile_schema(schema)
    except SchemaError as exc:
        exc.path.insert(0, where)
        raise


@functools.cache
def _schema_check(name: str) -> Callable[[Any], None]:
    """The compiled check of schemas/<name>.schema.json, built once per process."""
    return compile_schema(json.loads((_PACKAGE_DIR / "schemas" / f"{name}.schema.json").read_bytes()))


def validate_payload(name: str, payload: Any) -> None:
    """Raise SchemaError unless `payload` matches schemas/<name>.schema.json."""
    _schema_check(name)(payload)


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "cyclicsieve"


class ResultCache:
    """File-per-key result cache.

    A new payload is checked against its schema by validate_payload before
    it is written; a hit is checked by key, command, payload hash and the
    type of its verdict, not against the schema again.
    """

    def __init__(self, directory: Optional[Path] = None, enabled: bool = True):
        self.directory = Path(directory) if directory else None
        self.enabled = enabled
        if enabled and self.directory is None:
            try:
                self.directory = default_cache_dir()
            except RuntimeError as exc:  # Path.home() with HOME unset and no passwd entry for the uid
                to_stderr(dumps_canonical({"warning": f"cannot find a cache directory: {exc}", "action": "running without cache"}))
                self.enabled = False

    def fetch(
        self, command: str, params: dict, schema: str, compute: Callable[[], tuple[Any, Optional[dict]]]
    ) -> tuple[str, Optional[dict]]:
        """The canonical JSON text of the payload for (command, params), and its verdict.

        `compute` returns the payload and its verdict: None, or the JSON
        reason the command fails with.  This is the one place a payload is
        validated against `schema` and encoded: a computed payload is
        checked by validate_payload (the in-package checker; a mismatch
        raises SchemaError and nothing is written), then encoded once, and
        that text is stored, hashed and returned, with the verdict stored in
        the header (with the cache disabled, only returned).  A hit returns
        the stored payload text as it is and the header's verdict, checked
        in _read_valid by key, command, payload hash and verdict type only;
        it was validated when it was written, by the same code and schemas
        its key hashes.  An entry that is corrupt or cannot be read, or that
        cannot be written, leaves one JSON warning on stderr, and the
        computed payload is returned all the same.
        """
        if not self.enabled:
            payload, verdict = compute()
            validate_payload(schema, payload)
            return dumps_canonical(payload), verdict
        source = package_digest()
        key = cache_key(command, params, source)
        path = self.directory / f"{key}.json"
        warned = False
        if path.exists():
            entry = self._read_valid(path, key, command)
            if entry is not None:
                return entry
            warned = True
        payload, verdict = compute()
        validate_payload(schema, payload)
        text = dumps_canonical(payload)
        header = dumps_canonical(
            {
                "command": command,
                "params": params,
                "source": source,
                "key": key,
                "payload_sha256": text_hash(text),
                "verdict": verdict,
            }
        )
        try:
            self._write(path, f"{header}\n{text}")
        except OSError as exc:
            if not warned:  # an entry already reported as corrupt gets no second warning
                warning = f"cannot write cache entry {path.name}: {exc}"
                to_stderr(dumps_canonical({"warning": warning, "action": "running without cache"}))
        return text, verdict

    def _write(self, path: Path, entry: str) -> None:
        """Write through a temp file of this writer's own, then rename it into place."""
        import tempfile  # only a miss writes, so a hit never loads it

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

    def _read_valid(self, path: Path, key: str, command: str) -> Optional[tuple[str, Optional[dict]]]:
        """The payload text and verdict of the entry at `path`, or None (with a warning) if it fails a check."""
        try:
            header_line, _, text = path.read_text(encoding="ascii").partition("\n")
            header = json.loads(header_line)
            if not isinstance(header, dict) or header.get("key") != key or header.get("command") != command:
                raise ValueError("cache key mismatch")
            if text_hash(text) != header.get("payload_sha256"):
                raise ValueError("payload hash mismatch")
            verdict = header.get("verdict", False)  # False, never a stored verdict, marks one missing
            if verdict is not None and not (isinstance(verdict, dict) and isinstance(verdict.get("error"), str)):
                raise ValueError("missing or malformed verdict")
            return text, verdict
        except (OSError, ValueError) as exc:
            to_stderr(dumps_canonical({"warning": f"corrupted cache entry {path.name}: {exc}", "action": "recomputing"}))
            return None
