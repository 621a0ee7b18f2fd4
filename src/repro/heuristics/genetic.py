"""GA — genetic search over single-path Manhattan routings.

The paper's related work (Shin [18], CODES+ISSS'04) applies genetic
algorithms to the sibling problem of assigning link speeds for a mapped
task graph; this module brings the same machinery to the routing problem
itself, as a reference stochastic-search baseline next to the paper's
constructive heuristics.

Representation: one individual = one move string per communication (the
complete 1-MP routing).  Fitness = graded total power (lower is better),
evaluated from scratch per individual with a single ``np.add.at`` load
accumulation.  Variation: uniform per-communication crossover plus
per-communication mutation (corner flip or uniform path resample).
Selection: size-``k`` tournaments with elitism.

The initial population is seeded with the routings of cheap registered
heuristics (XY, YX, SG by default) so the GA starts no worse than its
seeds and the comparison against the paper's heuristics is conservative.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.problem import RoutingProblem
from repro.heuristics.base import Heuristic, register_heuristic
from repro.heuristics.local_moves import initial_moves
from repro.mesh.batch import flip_corners
from repro.mesh.kernel import FlatRoutingKernel
from repro.mesh.paths import Path
from repro.utils.rng import RngLike, StreamReplica, ensure_rng
from repro.utils.validation import InvalidParameterError

Genome = Tuple[str, ...]


@register_heuristic("GA")
class GeneticRouting(Heuristic):
    """Tournament-selection GA with heuristic-seeded initial population.

    Parameters
    ----------
    population:
        Individuals per generation (>= 4).
    generations:
        Evolution steps after initialisation.
    tournament:
        Tournament size for parent selection.
    crossover_prob:
        Probability that a child mixes two parents (else clone of one).
    mutation_prob:
        Per-communication mutation probability in each child.
    elite:
        Individuals copied unchanged into the next generation.
    seeds:
        Registered heuristic names whose routings seed the population.
    seed:
        RNG seed (or Generator); deterministic given the seed.
    """

    def __init__(
        self,
        *,
        population: int = 32,
        generations: int = 60,
        tournament: int = 3,
        crossover_prob: float = 0.9,
        mutation_prob: float = 0.2,
        elite: int = 2,
        seeds: Sequence[str] = ("XY", "YX", "SG"),
        seed: RngLike = 0,
    ):
        if population < 4:
            raise InvalidParameterError(f"population must be >= 4, got {population}")
        if generations < 1:
            raise InvalidParameterError(
                f"generations must be >= 1, got {generations}"
            )
        if not 2 <= tournament <= population:
            raise InvalidParameterError(
                f"tournament must lie in [2, population], got {tournament}"
            )
        if not 0.0 <= crossover_prob <= 1.0:
            raise InvalidParameterError(
                f"crossover_prob must lie in [0, 1], got {crossover_prob}"
            )
        if not 0.0 <= mutation_prob <= 1.0:
            raise InvalidParameterError(
                f"mutation_prob must lie in [0, 1], got {mutation_prob}"
            )
        if not 0 <= elite < population:
            raise InvalidParameterError(
                f"elite must lie in [0, population), got {elite}"
            )
        self.population = population
        self.generations = generations
        self.tournament = tournament
        self.crossover_prob = crossover_prob
        self.mutation_prob = mutation_prob
        self.elite = elite
        self.seeds = tuple(seeds)
        self._rng = ensure_rng(seed)

    def reseed(self, rng: RngLike) -> None:
        """Rebind the GA's randomness (see :meth:`Heuristic.reseed`)."""
        self._rng = ensure_rng(rng)

    # ------------------------------------------------------------------
    def _route(self, problem: RoutingProblem) -> List[Path]:
        # all of the GA's randomness — tournaments, crossover masks,
        # mutation gates, path resamples — runs through the bit-exact
        # stream replica (array draws consume the generator stream element
        # by element, so the scalar replays are draw-for-draw identical)
        rng = StreamReplica(np.random.default_rng(self._rng.integers(2**63)))
        kernel = problem.kernel()
        pop = self._initial_population(problem, rng)
        fitness = self._population_fitness(problem, kernel, pop)

        comms = problem.comms
        straight = [c.delta_u == 0 or c.delta_v == 0 for c in comms]
        dags = [
            None if s else problem.dag(i) for i, s in enumerate(straight)
        ]
        for _ in range(self.generations):
            order = np.argsort(fitness)
            fitness_l = fitness.tolist()
            next_pop: List[Genome] = [pop[i] for i in order[: self.elite]]
            while len(next_pop) < self.population:
                a = self._tournament_pick(fitness_l, rng)
                if rng.random() < self.crossover_prob:
                    b = self._tournament_pick(fitness_l, rng)
                    child = self._crossover(pop[a], pop[b], rng)
                else:
                    child = pop[a]
                child = self._mutate(child, rng, straight, dags)
                next_pop.append(child)
            pop = next_pop
            fitness = self._population_fitness(problem, kernel, pop)

        best = pop[int(np.argmin(fitness))]
        return [
            Path.from_validated(problem.mesh, c.src, c.snk, mv)
            for c, mv in zip(problem.comms, best)
        ]

    # ------------------------------------------------------------------
    def _initial_population(
        self, problem: RoutingProblem, rng: np.random.Generator
    ) -> List[Genome]:
        pop: List[Genome] = []
        for name in self.seeds:
            if len(pop) >= self.population:
                break
            pop.append(tuple(initial_moves(problem, name)))
        while len(pop) < self.population:
            genome = tuple(
                problem.dag(i).random_moves(rng, alive_only=True)
                for i in range(problem.num_comms)
            )
            pop.append(genome)
        return pop

    @staticmethod
    def _population_fitness(
        problem: RoutingProblem,
        kernel: FlatRoutingKernel,
        pop: Sequence[Genome],
    ) -> np.ndarray:
        """Graded total power of every genome, in one batched NumPy pass.

        The flat kernel turns the whole population into a ``P × total_hops``
        link matrix, the loads into a ``P × num_links`` matrix, and
        :meth:`~repro.mesh.kernel.FlatRoutingKernel.graded_powers` grades
        all rows at once (threading the mesh's fault mask and power-scale
        vectors on profiled meshes) — the population evaluation that used
        to dominate the GA's runtime is a handful of vector operations.
        """
        vmask = kernel.population_vmask(pop)
        return kernel.graded_powers(problem.power, vmask)

    def _tournament_pick(self, fitness_l: List[float], rng: StreamReplica) -> int:
        """First-minimum tournament over ``tournament`` scalar draws.

        Draw-for-draw identical to drawing the contender array in one
        call and taking ``argmin`` (strict ``<`` keeps the earliest
        minimum, like ``argmin``).
        """
        integers = rng.integers
        n = len(fitness_l)
        best = integers(n)
        bf = fitness_l[best]
        for _ in range(self.tournament - 1):
            c = integers(n)
            f = fitness_l[c]
            if f < bf:
                best, bf = c, f
        return best

    @staticmethod
    def _crossover(a: Genome, b: Genome, rng: StreamReplica) -> Genome:
        """Uniform per-communication exchange (paths are never spliced)."""
        random = rng.random
        return tuple(x if random() < 0.5 else y for x, y in zip(a, b))

    def _mutate(
        self,
        genome: Genome,
        rng: StreamReplica,
        straight: List[bool],
        dags: List,
    ) -> Genome:
        out = list(genome)
        random = rng.random
        integers = rng.integers
        mutation_prob = self.mutation_prob
        for i, is_straight in enumerate(straight):
            if random() >= mutation_prob:
                continue
            if is_straight:
                continue  # unique Manhattan path; nothing to mutate
            if random() < 0.5:
                out[i] = dags[i].random_moves(rng, alive_only=True)
            else:
                mv = out[i]
                pos = flip_corners(mv)
                if pos:
                    j = pos[integers(len(pos))]
                    out[i] = mv[:j] + mv[j + 1] + mv[j] + mv[j + 2 :]
        return tuple(out)
