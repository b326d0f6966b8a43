"""GA tuning of the seven controller parameters.

Fitness is the simulator itself: mean deposits over N seeded trials of a
fixed training configuration.  Standard real-coded operators (tournament
selection, uniform crossover, Gaussian mutation, one-elite carryover)
with every gene clamped back into its sampling range.
"""
from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_PARAMS, Arena, CpfaParams, PARAM_NAMES, PARAM_RANGES, derive_seed
from .engine import TrialConfig, run_trial
from .layouts import Distribution, LayoutSpec

# Draws from the two exponential-rate genes are clamped here.
EXP_GENE_CAP = 50.0
# Genomes drawn per tournament; the fittest (lowest index on ties) wins.
TOURNAMENT_SIZE = 2


@dataclass(frozen=True)
class GaConfig:
    population: int = 10
    generations: int = 30
    trials_per_genome: int = 10
    eval_duration: float = 720.0  # seconds; 12 minutes per training trial
    team_size: int = 6
    arena_side: float = 8.0
    resource_count: int = 128
    distribution: Distribution = Distribution.POWERLAW
    master_seed: int = 0
    workers: int = 1
    elitism: int = 1

    def __post_init__(self):
        if min(self.population, self.generations, self.trials_per_genome) < 1:
            raise ValueError("population, generations and trials_per_genome must be >= 1")
        # a bad arena, count, team or duration fails here, not in the first evaluation
        self.training_config(DEFAULT_PARAMS, seed=0)

    def training_config(self, genome: CpfaParams, seed: int) -> TrialConfig:
        arena = Arena.square(self.arena_side)
        layout = LayoutSpec(self.distribution, self.resource_count, arena, seed=seed)
        return TrialConfig(
            arena=arena,
            team_size=self.team_size,
            layout=layout,
            params=genome,
            policy="cascade",
            duration=self.eval_duration,
            seed=derive_seed(seed, "behavior"),
        )


def sample_genome(rng: np.random.Generator) -> CpfaParams:
    """One genome drawn from the published sampling ranges.

    The table's "exp(k)" genes are Exponential with rate k (mean 1/k).
    """
    return CpfaParams(
        p_s=rng.uniform(0.0, 1.0),
        p_r=rng.uniform(0.0, 1.0),
        rho_u=rng.uniform(*PARAM_RANGES["rho_u"]),
        lambda_i=min(rng.exponential(1.0 / 5.0), EXP_GENE_CAP),
        lambda_f=rng.uniform(0.0, 20.0),
        lambda_lp=rng.uniform(0.0, 20.0),
        lambda_d=min(rng.exponential(1.0 / 10.0), EXP_GENE_CAP),
    )


def _clamp_gene(name: str, value: float) -> float:
    lo, hi = PARAM_RANGES[name]
    return min(max(value, lo), hi)


def crossover(a: CpfaParams, b: CpfaParams, rng: np.random.Generator,
              gene_prob: float = 0.5) -> CpfaParams:
    """Uniform crossover: each gene from parent a with gene_prob."""
    values = {
        name: getattr(a, name) if rng.uniform() < gene_prob else getattr(b, name)
        for name in PARAM_NAMES
    }
    return CpfaParams(**values)


def mutate(genome: CpfaParams, rng: np.random.Generator, gene_prob: float = 0.1,
           sigma_frac: float = 0.1) -> CpfaParams:
    """Gaussian mutation, per gene, clamped back into range."""
    values = {}
    for name in PARAM_NAMES:
        value = getattr(genome, name)
        if rng.uniform() < gene_prob:
            lo, hi = PARAM_RANGES[name]
            value = _clamp_gene(name, value + rng.normal(0.0, sigma_frac * (hi - lo)))
        values[name] = value
    return CpfaParams(**values)


def _trial_seeds(config: GaConfig, genome_index: int) -> list[int]:
    return [
        derive_seed(config.master_seed, "eval", genome_index, trial)
        for trial in range(config.trials_per_genome)
    ]


def _run_one(args) -> float:
    genome_dict, config, seed = args
    genome = CpfaParams.from_dict(genome_dict)
    return float(run_trial(config.training_config(genome, seed)).deposits)


def evaluate(genome: CpfaParams, config: GaConfig, seeds: list[int],
             pool: ProcessPoolExecutor | None = None) -> float:
    """Mean deposits over the seeded training trials.  A failed trial
    raises its error rather than scoring the genome."""
    jobs = [(genome.as_dict(), config, s) for s in seeds]
    if pool is not None:
        scores = list(pool.map(_run_one, jobs))
    else:
        scores = [_run_one(j) for j in jobs]
    return float(np.mean(scores)) if scores else 0.0


@dataclass
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    best_so_far: float
    best_genome: dict = field(default_factory=dict)


def ga_run(config: GaConfig) -> tuple[CpfaParams, list[GenerationStats]]:
    """Evolve for the configured generations; returns best genome + history.

    The elite's fitness is cached rather than re-evaluated, so the
    best-so-far curve is genuinely monotone.
    """
    rng = np.random.default_rng(derive_seed(config.master_seed, "ga"))
    pool = ProcessPoolExecutor(config.workers) if config.workers > 1 else None
    genome_counter = 0

    def evaluate_new(genome: CpfaParams) -> float:
        nonlocal genome_counter
        seeds = _trial_seeds(config, genome_counter)
        genome_counter += 1
        return evaluate(genome, config, seeds=seeds, pool=pool)

    try:
        population = [sample_genome(rng) for _ in range(config.population)]
        fitnesses = [evaluate_new(g) for g in population]
        history: list[GenerationStats] = []
        best_genome, best_fitness = None, -1.0

        for generation in range(config.generations):
            gen_best = int(np.argmax(fitnesses))
            if fitnesses[gen_best] > best_fitness:
                best_fitness = fitnesses[gen_best]
                best_genome = population[gen_best]
            history.append(
                GenerationStats(
                    generation=generation,
                    best_fitness=float(fitnesses[gen_best]),
                    mean_fitness=float(np.mean(fitnesses)),
                    best_so_far=float(best_fitness),
                    best_genome=best_genome.as_dict(),
                )
            )
            if generation == config.generations - 1:
                break

            def tournament() -> CpfaParams:
                contenders = rng.integers(0, len(population), size=TOURNAMENT_SIZE)
                winner = min(contenders, key=lambda i: (-fitnesses[i], i))
                return population[int(winner)]

            order = sorted(range(len(population)), key=lambda i: (-fitnesses[i], i))
            elites = order[: min(max(1, config.elitism), config.population)]
            next_population = [population[i] for i in elites]
            next_fitnesses = [fitnesses[i] for i in elites]
            while len(next_population) < config.population:
                child = mutate(crossover(tournament(), tournament(), rng), rng)
                next_population.append(child)
                next_fitnesses.append(evaluate_new(child))
            population, fitnesses = next_population, next_fitnesses
    finally:
        if pool is not None:
            pool.shutdown()

    return best_genome, history


def ga_cost(t_eval_minutes: float, n_trials: int, population: int, generations: int) -> float:
    """Total tuning time in minutes: the plain product of the four factors."""
    if min(t_eval_minutes, n_trials, population, generations) < 0:
        raise ValueError("all factors must be nonnegative")
    return t_eval_minutes * n_trials * population * generations


def save_history(history: list[GenerationStats], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["generation", "best_fitness", "mean_fitness", "best_so_far"])
        for row in history:
            writer.writerow([row.generation, row.best_fitness, row.mean_fitness, row.best_so_far])
