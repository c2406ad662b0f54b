"""Model-artifact registry: versioned, content-addressed estimator bundles.

The training side of the repo got fast (cached records, histogram GBMs) but
until this module every prediction still paid for a full ``fit`` — nothing
persisted a fitted :class:`~repro.core.pipeline.RTLTimer`.  The registry is
the train-once/serve-many boundary:

* a **bundle** is ``{"manifest": <plain JSON-able dict>, "payload":
  <pickled state bytes>}``.  The payload is the structural
  :meth:`~repro.core.pipeline.RTLTimer.to_state` snapshot (numpy arrays +
  scalars, no live estimator objects), so reloading is robust against
  incidental class-layout changes and restored predictions are
  bit-identical to the fitted original;
* the **bundle id** is ``sha256(payload)`` — content-addressed, so saving
  the same fitted model twice is idempotent and any byte flip in a stored
  payload is detected at load time (``RegistryError``), never silently
  served;
* the **manifest** carries the schema tag, config snapshot, training-design
  list and user metadata, and is validated field-by-field before the
  payload is even unpickled;
* storage is an :class:`~repro.runtime.cache.ArtifactCache` under
  ``<cache dir>/models`` (``REPRO_MODEL_DIR`` overrides) plus an atomic
  ``registry.json`` index mapping model *names* to their version history,
  newest last;
* each name additionally carries a **promotion history**: the deployment
  pointer behind the ``name@promoted`` alias.  Promotions are appended by
  the eval-gated ``python -m repro retrain`` flow (or a manual
  ``repro promote``) together with the eval-report digest that justified
  them, and :meth:`ModelRegistry.rollback` pops back to the previous
  promoted bundle.  Serving a model as ``name@promoted`` therefore follows
  deployments, not registrations.

``RTLTimer.save(path)`` / ``RTLTimer.load(path)`` use the same bundle
format as a single self-contained file for ad-hoc hand-offs.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

try:  # POSIX-only; the registry degrades to lock-free updates elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.runtime import report as report_mod
from repro.runtime.cache import ArtifactCache, PICKLE_PROTOCOL, default_cache_dir, gc_paused

#: Version tag of the bundle schema (manifest + payload layout).
MODEL_BUNDLE_SCHEMA = "repro-model-bundle/2"

#: Version tag of the ``registry.json`` index schema.
REGISTRY_INDEX_SCHEMA = "repro-model-registry/1"

#: Environment variable overriding the registry directory.
MODEL_DIR_ENV_VAR = "REPRO_MODEL_DIR"

#: Reserved version text selecting the promoted bundle: ``name@promoted``.
PROMOTED_ALIAS = "promoted"

#: Manifest fields that must be present (and hash-consistent) at load time.
_REQUIRED_MANIFEST_FIELDS = ("schema", "bundle_id", "model", "created_at")


class RegistryError(RuntimeError):
    """A bundle is missing, corrupted, or fails schema/hash validation."""


def default_model_dir() -> Path:
    """Registry directory: ``REPRO_MODEL_DIR`` or ``<cache dir>/models``."""
    env = os.environ.get(MODEL_DIR_ENV_VAR)
    if env:
        return Path(env).expanduser()
    return default_cache_dir() / "models"


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------


def state_payload(state: Dict[str, Any]) -> bytes:
    """Pickle a model state into the canonical payload bytes."""
    with gc_paused():
        return pickle.dumps(state, protocol=PICKLE_PROTOCOL)


def bundle_id_for(payload: bytes) -> str:
    """Content address of a bundle: sha256 over the payload bytes."""
    return hashlib.sha256(payload).hexdigest()


def build_manifest(
    timer: Any,
    payload: bytes,
    name: Optional[str] = None,
    metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the JSON-able manifest for one fitted timer's payload."""
    import repro

    return {
        "schema": MODEL_BUNDLE_SCHEMA,
        "bundle_id": bundle_id_for(payload),
        "model": "RTLTimer",
        "name": name,
        "created_at": time.time(),
        "repro_version": repro.__version__,
        "config": repr(timer.config),
        "training_designs": list(getattr(timer, "training_designs_", [])),
        "payload_bytes": len(payload),
        "metadata": dict(metadata or {}),
    }


def _validate_manifest(manifest: Any, expected_id: Optional[str] = None) -> Dict[str, Any]:
    if not isinstance(manifest, dict):
        raise RegistryError("bundle manifest is not a mapping")
    for field in _REQUIRED_MANIFEST_FIELDS:
        if field not in manifest:
            raise RegistryError(f"bundle manifest is missing the {field!r} field")
    if manifest["schema"] != MODEL_BUNDLE_SCHEMA:
        raise RegistryError(
            f"unsupported bundle schema {manifest['schema']!r} "
            f"(expected {MODEL_BUNDLE_SCHEMA!r})"
        )
    if expected_id is not None and manifest["bundle_id"] != expected_id:
        raise RegistryError("bundle manifest does not match the requested bundle id")
    return manifest


def _open_bundle(bundle: Any, expected_id: Optional[str] = None):
    """Validate a raw bundle dict and return the restored timer + manifest."""
    from repro.core.pipeline import RTLTimer

    if not isinstance(bundle, dict) or "manifest" not in bundle or "payload" not in bundle:
        raise RegistryError("bundle does not have the manifest/payload layout")
    manifest = _validate_manifest(bundle["manifest"], expected_id)
    payload = bundle["payload"]
    if not isinstance(payload, bytes):
        raise RegistryError("bundle payload is not a byte string")
    if bundle_id_for(payload) != manifest["bundle_id"]:
        raise RegistryError(
            "bundle payload does not hash to its recorded bundle id (corrupted bundle)"
        )
    with gc_paused():
        state = pickle.loads(payload)
    timer = RTLTimer.from_state(state)
    return timer, manifest


def write_bundle_file(timer: Any, path: os.PathLike) -> str:
    """Write one fitted timer as a self-contained bundle file; returns its id."""
    payload = state_payload(timer.to_state())
    manifest = build_manifest(timer, payload, name=Path(path).stem)
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    with gc_paused():
        blob = pickle.dumps(
            {"manifest": manifest, "payload": payload}, protocol=PICKLE_PROTOCOL
        )
    fd, tmp_name = tempfile.mkstemp(dir=destination.parent, prefix=".tmp-bundle-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp_name, destination)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return manifest["bundle_id"]


def read_bundle_file(path: os.PathLike):
    """Load a :func:`write_bundle_file` bundle; raises :class:`RegistryError`."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise RegistryError(f"cannot read bundle file {path}: {exc}") from exc
    try:
        with gc_paused():
            bundle = pickle.loads(blob)
    except Exception as exc:
        raise RegistryError(f"bundle file {path} does not hold pickled bundle data") from exc
    timer, _ = _open_bundle(bundle)
    return timer


# ---------------------------------------------------------------------------
# The registry proper
# ---------------------------------------------------------------------------


class ModelRegistry:
    """Named + versioned store of model bundles over :class:`ArtifactCache`.

    Bundles live in the cache's two-level fan-out layout keyed by bundle id;
    ``registry.json`` maps each model *name* to its version history (newest
    last).  Saving is idempotent per content: re-registering an identical
    fitted model under the same name does not grow the history.
    """

    def __init__(self, directory: Optional[os.PathLike] = None):
        self.directory = Path(directory) if directory is not None else default_model_dir()
        # Model bundles are explicit artifacts, not a transparent cache:
        # always enabled regardless of REPRO_CACHE so a training run's
        # save_model cannot silently vanish.
        self.cache = ArtifactCache(self.directory, enabled=True, counter_prefix="model")
        self.index_path = self.directory / "registry.json"

    # -- index ------------------------------------------------------------------

    @contextlib.contextmanager
    def _index_lock(self) -> Iterator[None]:
        """Serialize read-modify-write cycles on ``registry.json``.

        Concurrent trainers sharing one registry directory (parallel CI
        jobs, several ``python -m repro train`` processes) must not lose
        each other's registrations: the per-write ``os.replace`` is atomic,
        but the update as a whole is not.  An ``flock`` on a sidecar lock
        file covers the full cycle on POSIX; elsewhere this degrades to the
        lock-free behaviour.
        """
        if fcntl is None:
            yield
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.directory / ".registry.lock", "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def _read_index(self) -> Dict[str, Any]:
        try:
            index = json.loads(self.index_path.read_text())
        except FileNotFoundError:
            return {"schema": REGISTRY_INDEX_SCHEMA, "models": {}, "promotions": {}}
        except (OSError, json.JSONDecodeError) as exc:
            raise RegistryError(f"registry index {self.index_path} is unreadable: {exc}") from exc
        if index.get("schema") != REGISTRY_INDEX_SCHEMA:
            raise RegistryError(f"unsupported registry index schema {index.get('schema')!r}")
        # Indexes written before the lifecycle existed have no promotions map.
        index.setdefault("promotions", {})
        return index

    def _write_index(self, index: Dict[str, Any]) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.directory, prefix=".tmp-index-")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(index, handle, indent=2)
                handle.write("\n")
            os.replace(tmp_name, self.index_path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- public API ----------------------------------------------------------------

    def save(
        self,
        timer: Any,
        name: str,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Register one fitted timer under ``name``; returns its manifest.

        A model whose payload bytes are already registered under this name
        is not duplicated — its existing manifest is returned with any new
        ``metadata`` keys merged in and persisted (the bundle blob is
        re-stored if it went missing or corrupt on disk).
        """
        if not name or "/" in name or "@" in name or name.startswith("."):
            # '@' is the version separator of resolve(), so a name carrying
            # it could never be looked up again.
            raise ValueError(f"invalid model name {name!r}")
        payload = state_payload(timer.to_state())
        manifest = build_manifest(timer, payload, name=name, metadata=metadata)
        bundle_id = manifest["bundle_id"]

        with self._index_lock(), report_mod.stage("serve.save_model"):
            index = self._read_index()
            versions: List[Dict[str, Any]] = index["models"].setdefault(name, [])
            known = any(version["bundle_id"] == bundle_id for version in versions)
            if known:
                report_mod.incr("model_dedup_saves")
                try:
                    stored = self.manifest(bundle_id)
                except RegistryError:
                    # The index knows this content but the blob is gone or
                    # corrupt: repair the store with the payload in hand
                    # instead of failing the save forever.
                    stored = None
                if stored is not None:
                    if metadata:
                        # The payload dedups but this save still carries new
                        # metadata; merge it into the stored manifest (the
                        # bundle id hashes the payload only, so the blob can
                        # be rewritten in place without changing identity).
                        stored.setdefault("metadata", {}).update(metadata)
                        if not self.cache.put(
                            bundle_id, {"manifest": stored, "payload": payload}
                        ):
                            raise RegistryError(
                                f"could not update metadata of bundle {bundle_id} "
                                f"in {self.directory}"
                            )
                    return stored
            if not self.cache.put(bundle_id, {"manifest": manifest, "payload": payload}):
                raise RegistryError(f"could not store bundle {bundle_id} in {self.directory}")
            if not known:
                versions.append(
                    {
                        "bundle_id": bundle_id,
                        "version": len(versions) + 1,
                        "created_at": manifest["created_at"],
                    }
                )
                self._write_index(index)
        return manifest

    def resolve(self, ref: str) -> str:
        """Resolve a model reference to a bundle id.

        ``ref`` is a model name (latest version), ``name@<version>``
        (e.g. ``mymodel@1``), ``name@promoted`` (the deployment pointer
        maintained by :meth:`promote` / :meth:`rollback`), or a full
        bundle id (which must actually exist in the store).
        """
        index = self._read_index()
        return self._resolve_in(index, ref)

    def _resolve_in(self, index: Dict[str, Any], ref: str) -> str:
        """:meth:`resolve` against an already-read index snapshot."""
        name, _, version_text = ref.partition("@")
        versions = index["models"].get(name)
        if versions:
            if not version_text:
                return versions[-1]["bundle_id"]
            if version_text == PROMOTED_ALIAS:
                history = index["promotions"].get(name)
                if not history:
                    raise RegistryError(
                        f"model {name!r} has no promoted version; "
                        f"run `repro retrain` or `repro promote` first"
                    )
                return history[-1]["bundle_id"]
            try:
                number = int(version_text)
            except ValueError:
                raise RegistryError(f"bad version {version_text!r} in model ref {ref!r}") from None
            for version in versions:
                if version["version"] == number:
                    return version["bundle_id"]
            raise RegistryError(f"model {name!r} has no version {number}")
        if len(ref) == 64 and all(c in "0123456789abcdef" for c in ref):
            # Verify the bundle actually exists so the error names the
            # missing id here rather than surfacing later as a generic
            # "missing or unreadable" on an id the caller may have mistyped.
            if not self.cache.path_for(ref).exists():
                raise RegistryError(
                    f"bundle {ref} is not present in the registry store {self.directory}"
                )
            return ref
        raise RegistryError(f"unknown model {ref!r}; registered: {sorted(index['models'])}")

    def _bundle(self, ref: str):
        bundle_id = self.resolve(ref)
        bundle = self.cache.get(bundle_id)
        if bundle is None:
            raise RegistryError(
                f"bundle {bundle_id} for model {ref!r} is missing or unreadable "
                f"in {self.directory}"
            )
        return _open_bundle(bundle, expected_id=bundle_id)

    def load(self, ref: str):
        """Load the timer a reference points at (schema + hash verified)."""
        return self.load_with_manifest(ref)[0]

    def load_with_manifest(self, ref: str) -> Tuple[Any, Dict[str, Any]]:
        """Load a timer together with its manifest in one bundle read.

        Preferred over ``load()`` + ``manifest()`` when both are needed —
        each of those deserializes the full bundle (payload included).
        """
        with report_mod.stage("serve.load_model"):
            return self._bundle(ref)

    def payload(self, ref: str) -> Tuple[bytes, Dict[str, Any]]:
        """Verified payload bytes + manifest, without restoring the model.

        The worker pool ships these bytes to forked workers, which call
        ``RTLTimer.from_state(pickle.loads(payload))`` themselves — one
        registry read per (re)spawn, hash-checked here so a corrupt store
        can never reach a worker.
        """
        bundle_id = self.resolve(ref)
        bundle = self.cache.get(bundle_id)
        if bundle is None:
            raise RegistryError(
                f"bundle {bundle_id} for model {ref!r} is missing or unreadable "
                f"in {self.directory}"
            )
        if not isinstance(bundle, dict) or "manifest" not in bundle or "payload" not in bundle:
            raise RegistryError("bundle does not have the manifest/payload layout")
        manifest = _validate_manifest(bundle["manifest"], expected_id=bundle_id)
        payload = bundle["payload"]
        if not isinstance(payload, bytes) or bundle_id_for(payload) != manifest["bundle_id"]:
            raise RegistryError(
                "bundle payload does not hash to its recorded bundle id (corrupted bundle)"
            )
        return payload, manifest

    def manifest(self, ref: str) -> Dict[str, Any]:
        """The manifest of a bundle without restoring the model payload."""
        bundle_id = self.resolve(ref)
        bundle = self.cache.get(bundle_id)
        if bundle is None:
            raise RegistryError(f"bundle {bundle_id} is missing or unreadable")
        if not isinstance(bundle, dict) or "manifest" not in bundle:
            raise RegistryError("bundle does not have the manifest/payload layout")
        return _validate_manifest(bundle["manifest"], expected_id=bundle_id)

    def list_models(self) -> Dict[str, List[Dict[str, Any]]]:
        """Name -> version history (oldest first) of every registered model.

        The result is a deep copy: mutating it cannot corrupt what a later
        :meth:`resolve` in the same process reads (the index itself is only
        ever rewritten atomically under the registry lock).
        """
        return copy.deepcopy(self._read_index()["models"])

    # -- promotion (the name@promoted deployment pointer) -------------------------

    def promote(
        self,
        name: str,
        ref: str,
        eval_digest: Optional[str] = None,
        source: str = "manual",
    ) -> Dict[str, Any]:
        """Point ``name@promoted`` at ``ref``; returns the promotion entry.

        ``ref`` must resolve to a registered version of ``name`` whose blob
        is present in the store — the promoted alias may never point at a
        bundle that cannot be served.  ``eval_digest`` records the digest of
        the eval report that justified the promotion (``repro retrain``
        passes it; manual promotions default to ``None``).  Re-promoting
        the already-promoted bundle is idempotent and does not grow the
        history.
        """
        with self._index_lock():
            index = self._read_index()
            bundle_id = self._resolve_in(index, ref)
            versions = index["models"].get(name) or []
            version = next(
                (v["version"] for v in versions if v["bundle_id"] == bundle_id), None
            )
            if version is None:
                raise RegistryError(
                    f"bundle {bundle_id} is not a registered version of model {name!r}"
                )
            if not self.cache.path_for(bundle_id).exists():
                raise RegistryError(
                    f"cannot promote {name!r}: bundle {bundle_id} is missing from the store"
                )
            history: List[Dict[str, Any]] = index["promotions"].setdefault(name, [])
            if history and history[-1]["bundle_id"] == bundle_id:
                return copy.deepcopy(history[-1])
            entry = {
                "bundle_id": bundle_id,
                "version": version,
                "eval_digest": eval_digest,
                "promoted_at": time.time(),
                "source": source,
            }
            history.append(entry)
            self._write_index(index)
            report_mod.incr("model_promotions")
        return copy.deepcopy(entry)

    def promoted(self, name: str) -> Optional[Dict[str, Any]]:
        """The active promotion entry of ``name`` (deep copy), or ``None``."""
        history = self._read_index()["promotions"].get(name)
        return copy.deepcopy(history[-1]) if history else None

    def promotion_history(self, name: str) -> List[Dict[str, Any]]:
        """Every promotion of ``name``, oldest first (deep copy)."""
        return copy.deepcopy(self._read_index()["promotions"].get(name, []))

    def rollback(self, name: str) -> Dict[str, Any]:
        """Drop the newest promotion of ``name``; returns the restored entry.

        Recovery path for a bad promotion: the alias moves back to the
        previously promoted bundle.  Raises :class:`RegistryError` when the
        name has no promotion or nothing older to fall back to, or when the
        restored bundle's blob has gone missing (rolling back onto an
        unservable bundle would just move the outage).
        """
        with self._index_lock():
            index = self._read_index()
            history = index["promotions"].get(name)
            if not history:
                raise RegistryError(f"model {name!r} has no promotion to roll back")
            if len(history) < 2:
                raise RegistryError(
                    f"model {name!r} has no previous promotion to roll back to"
                )
            restored = history[-2]
            if not self.cache.path_for(restored["bundle_id"]).exists():
                raise RegistryError(
                    f"cannot roll back {name!r}: previous bundle "
                    f"{restored['bundle_id']} is missing from the store"
                )
            history.pop()
            self._write_index(index)
            report_mod.incr("model_rollbacks")
        return copy.deepcopy(restored)


# -- module-level convenience ---------------------------------------------------


def save_model(
    timer: Any,
    name: str,
    registry: Optional[ModelRegistry] = None,
    metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Register a fitted timer in the (default) registry; returns the manifest."""
    return (registry or ModelRegistry()).save(timer, name, metadata=metadata)


def load_model(ref: str, registry: Optional[ModelRegistry] = None):
    """Load a registered model by name / ``name@version`` / bundle id."""
    return (registry or ModelRegistry()).load(ref)
