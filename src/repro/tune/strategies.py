"""The three search strategies behind one ``Tuner`` interface.

Tuners speak an ask/tell protocol: the driver calls :meth:`Tuner.ask` for
the next batch of candidates (one *generation*), evaluates them (engine,
cache, pruner — the tuner does not care how scores are produced) and
feeds the scores back with :meth:`Tuner.tell`.  All randomness flows from
one ``random.Random(seed)``, so a (strategy, space, seed) triple replays
the identical candidate sequence — the property the resume machinery and
the determinism tests rely on.

- :class:`GridTuner` — exhaustive enumeration in sweep grid order; an
  equal-budget prefix is exactly "the first N points of a sweep".
- :class:`RandomTuner` — uniform sampling without replacement.
- :class:`GeneticTuner` — a seeded population loop: tournament selection
  over scored candidates, uniform crossover on the knob dict, and
  per-knob mutation (a ±1 step along the ordered value list for integer
  sizing knobs, a reroll for enum/bool policy knobs).
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Tuple

from ..names import STRATEGIES
from .space import Candidate, SearchSpace, canonical_candidate

__all__ = [
    "STRATEGIES",
    "GeneticTuner",
    "GridTuner",
    "RandomTuner",
    "Tuner",
    "make_tuner",
]

class Tuner:
    """Base ask/tell search driver over a :class:`SearchSpace`."""

    name = "tuner"

    def __init__(self, space: SearchSpace, seed: int = 0) -> None:
        self.space = space
        self.rng = random.Random(seed)

    def ask(self, limit: int) -> List[Candidate]:
        """Up to *limit* candidates for the next generation."""
        raise NotImplementedError

    def tell(self, scored: Mapping[Candidate, float]) -> None:
        """Feed back scores (EPI/1000 insts, lower is better) for the
        candidates of the last :meth:`ask` batch."""

    @property
    def exhausted(self) -> bool:
        """True once the strategy has nothing new left to propose."""
        return False


class GridTuner(Tuner):
    """Deterministic enumeration of the whole space in grid order."""

    name = "grid"

    def __init__(self, space: SearchSpace, seed: int = 0) -> None:
        super().__init__(space, seed)
        self._points = space.grid()
        self._cursor = 0

    def ask(self, limit: int) -> List[Candidate]:
        batch = self._points[self._cursor:self._cursor + max(1, limit)]
        self._cursor += len(batch)
        return batch

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self._points)


class RandomTuner(Tuner):
    """Uniform random search without replacement."""

    name = "random"

    def __init__(self, space: SearchSpace, seed: int = 0) -> None:
        super().__init__(space, seed)
        self._proposed: set = set()

    def ask(self, limit: int) -> List[Candidate]:
        out: List[Candidate] = []
        size = self.space.size()
        while len(out) < max(1, limit) and len(self._proposed) < size:
            candidate = self.space.sample(self.rng)
            if candidate in self._proposed:
                continue
            self._proposed.add(candidate)
            out.append(candidate)
        return out

    @property
    def exhausted(self) -> bool:
        return len(self._proposed) >= self.space.size()


class GeneticTuner(Tuner):
    """Seeded genetic search: tournament selection, crossover, mutation.

    Generation zero is the near-default candidate plus random valid
    samples.  Later generations carry over the *elites* best scored
    candidates (the driver serves their scores from cache — elitism costs
    no re-evaluation) and breed the rest: two tournament-selected parents,
    uniform per-knob crossover, then per-knob mutation with probability
    *mutation_rate* — integer sizing knobs step to a neighbouring allowed
    value (the per-knob mutation range), policy knobs reroll.
    """

    name = "genetic"

    def __init__(
        self,
        space: SearchSpace,
        seed: int = 0,
        *,
        population: int = 8,
        tournament: int = 3,
        elites: int = 1,
        mutation_rate: float = 0.25,
    ) -> None:
        super().__init__(space, seed)
        self.population = max(2, population)
        self.tournament = max(2, tournament)
        self.elites = max(0, elites)
        self.mutation_rate = mutation_rate
        self._pool: List[Tuple[Candidate, float]] = []

    def ask(self, limit: int) -> List[Candidate]:
        want = max(1, min(self.population, limit))
        if not self._pool:
            return self._initial(want)
        out: List[Candidate] = []
        # repr() tie-break: candidates hold enums, which are not orderable.
        ranked = sorted(
            self._pool, key=lambda scored: (scored[1], repr(scored[0]))
        )
        for candidate, _ in ranked[:self.elites]:
            if candidate not in out and len(out) < want:
                out.append(candidate)
        attempts = 0
        while len(out) < want and attempts < 64 * want:
            attempts += 1
            child = self._mutate(
                self._crossover(self._select(), self._select())
            )
            if child in out or not self.space.is_valid(child):
                continue
            out.append(child)
        while len(out) < want:
            out.append(self._valid_sample())
        return out

    def tell(self, scored: Mapping[Candidate, float]) -> None:
        for candidate, epi in scored.items():
            self._pool.append((candidate, float(epi)))
        # Selection pressure comes from tournaments; keeping the pool to
        # the last few generations stops ancient scores dominating.
        self._pool = self._pool[-4 * self.population:]

    # -- operators ---------------------------------------------------------

    def _initial(self, want: int) -> List[Candidate]:
        out = [self.space.default_candidate()]
        attempts = 0
        while len(out) < want and attempts < 64 * want:
            attempts += 1
            candidate = self._valid_sample()
            if candidate not in out:
                out.append(candidate)
        return out[:want]

    def _valid_sample(self) -> Candidate:
        for _ in range(64):
            candidate = self.space.sample(self.rng)
            if self.space.is_valid(candidate):
                return candidate
        return self.space.default_candidate()

    def _select(self) -> Candidate:
        entrants = [
            self._pool[self.rng.randrange(len(self._pool))]
            for _ in range(min(self.tournament, len(self._pool)))
        ]
        return min(entrants, key=lambda scored: scored[1])[0]

    def _crossover(self, a: Candidate, b: Candidate) -> Candidate:
        left, right = dict(a), dict(b)
        return canonical_candidate({
            name: (left if self.rng.random() < 0.5 else right)[name]
            for name in left
        })

    def _mutate(self, candidate: Candidate) -> Candidate:
        knobs: Dict[str, object] = {}
        for name, value in candidate:
            values = self.space.values(name)
            if len(values) > 1 and self.rng.random() < self.mutation_rate:
                if self.space.is_ordered(name):
                    index = values.index(value) + self.rng.choice((-1, 1))
                    value = values[max(0, min(len(values) - 1, index))]
                else:
                    value = self.rng.choice(
                        [v for v in values if v != value]
                    )
            knobs[name] = value
        return canonical_candidate(knobs)


def make_tuner(
    strategy: str,
    space: SearchSpace,
    seed: int = 0,
    *,
    budget: "int | None" = None,
) -> Tuner:
    """Instantiate the named strategy; unknown names list the valid set.

    *budget* (total evaluations the driver will afford) sizes the genetic
    population so small budgets still get several generations of
    selection pressure instead of one big initial sample.
    """
    if strategy == "grid":
        return GridTuner(space, seed)
    if strategy == "random":
        return RandomTuner(space, seed)
    if strategy == "genetic":
        if budget is not None:
            return GeneticTuner(
                space, seed, population=min(8, max(3, budget // 2)),
            )
        return GeneticTuner(space, seed)
    raise ValueError(
        f"unknown tune strategy {strategy!r}; valid strategies: "
        f"{', '.join(STRATEGIES)}"
    )
