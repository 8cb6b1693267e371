"""Resumable tuning state: the evaluated population, persisted per generation.

A tuning run persists its evaluated ``candidate -> EPI`` map to the shared
:class:`~repro.engine.cache.ArtifactCache` after every generation, under a
*state token* that is the content hash of (spec, settings).  A killed run
relaunched with the same spec/settings/cache finds the record and replays
the (deterministic, seeded) strategy, serving already-measured candidates
from the record instead of the engine — no completed candidate is
re-evaluated.

Integrity: the record carries a SHA-256 digest of the canonical wire
encoding of its evaluations.  A record that fails verification is
discarded and tuning restarts clean — stale or tampered state is never
resumed into a wrong winner.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, TYPE_CHECKING

from ..engine import serialize
from ..engine.cache import ArtifactCache, content_key, stable_token
from ..errors import ArtifactCorruptError
from .space import Candidate

if TYPE_CHECKING:
    from ..harness.experiment import ExperimentSettings
    from .driver import TuneSpec

__all__ = ["TUNE_STATE_VERSION", "TuneState", "TuneStateStore"]

#: Tune state record schema version.
TUNE_STATE_VERSION = 1


def _evaluations_digest(
    evaluated: Tuple[Tuple[Candidate, float], ...],
) -> str:
    payload = json.dumps(
        serialize.to_jsonable(evaluated), sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TuneState:
    """One persisted tuning population: evaluations + integrity digest."""

    version: int
    spec: "TuneSpec"
    settings: "ExperimentSettings"
    evaluated: Tuple[Tuple[Candidate, float], ...]
    digest: str

    def verify(self) -> Tuple[Tuple[Candidate, float], ...]:
        """The evaluations, after recomputing and checking the digest."""
        if self.version != TUNE_STATE_VERSION:
            raise ArtifactCorruptError(
                f"tune state version {self.version} != {TUNE_STATE_VERSION}"
            )
        actual = _evaluations_digest(self.evaluated)
        if actual != self.digest:
            raise ArtifactCorruptError(
                f"tune state digest mismatch (stored {self.digest[:12]}..., "
                f"recomputed {actual[:12]}...); discarding state"
            )
        return self.evaluated


class TuneStateStore:
    """Tuning-state persistence over the shared artifact cache."""

    KIND = "tune-state"

    def __init__(self, cache: ArtifactCache) -> None:
        self.cache = cache

    @staticmethod
    def token(spec: "TuneSpec", settings: "ExperimentSettings") -> str:
        """The resume token: content hash of the work the state is for."""
        return content_key("tune-state", spec, settings)

    def save(
        self,
        spec: "TuneSpec",
        settings: "ExperimentSettings",
        evaluated: Dict[Candidate, float],
    ) -> str:
        """Persist the evaluation map (replacing any older state);
        returns the resume token."""
        items = tuple(sorted(
            evaluated.items(), key=lambda pair: stable_token(pair[0]),
        ))
        state = TuneState(
            version=TUNE_STATE_VERSION,
            spec=spec,
            settings=settings,
            evaluated=items,
            digest=_evaluations_digest(items),
        )
        token = self.token(spec, settings)
        self.cache.put(self.KIND, token, state)
        return token

    def load_record(self, token: str) -> Optional[TuneState]:
        """The stored record for *token*, unverified; ``None`` if absent."""
        state = self.cache.get(self.KIND, token)
        if state is None:
            return None
        if not isinstance(state, TuneState):
            raise ArtifactCorruptError(
                f"tune state entry {token[:12]}... holds a "
                f"{type(state).__name__}, not a TuneState"
            )
        return state

    def load(
        self, spec: "TuneSpec", settings: "ExperimentSettings",
    ) -> Dict[Candidate, float]:
        """The verified evaluation map for (spec, settings).

        Empty on absence *and* on corruption — a bad record is discarded
        and tuning restarts clean rather than failing the run.
        """
        token = self.token(spec, settings)
        try:
            state = self.load_record(token)
        except ArtifactCorruptError:
            self.discard(spec, settings)
            return {}
        if state is None:
            return {}
        try:
            return dict(state.verify())
        except ArtifactCorruptError:
            self.discard(spec, settings)
            return {}

    def discard(
        self, spec: "TuneSpec", settings: "ExperimentSettings",
    ) -> None:
        """Drop the state for (spec, settings) from both cache tiers."""
        token = self.token(spec, settings)
        self.cache._memory.pop((self.KIND, token), None)
        if self.cache.directory is not None:
            try:
                self.cache._path(self.KIND, token).unlink()
            except OSError:
                pass


serialize.register(TuneState)
