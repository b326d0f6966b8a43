import numpy as np
import pytest

from swarmforage import tuner
from swarmforage.core import CpfaParams, DEFAULT_PARAMS, PARAM_NAMES, PARAM_RANGES
from swarmforage.engine import TrialError
from swarmforage.layouts import Distribution
from swarmforage.tuner import (
    GaConfig,
    _trial_seeds,
    crossover,
    evaluate,
    ga_cost,
    ga_run,
    mutate,
    sample_genome,
    save_history,
)


def desk_config(seed=0, **overrides):
    fields = dict(
        population=4,
        generations=3,
        trials_per_genome=2,
        eval_duration=60.0,
        team_size=4,
        arena_side=6.0,
        resource_count=64,
        distribution=Distribution.POWERLAW,
        master_seed=seed,
    )
    fields.update(overrides)
    return GaConfig(**fields)


class TestGaCost:
    def test_published_total(self):
        minutes = ga_cost(12, 10, 10, 30)
        assert minutes == 36_000
        assert minutes / 60 == 600

    def test_zero_factor(self):
        assert ga_cost(0, 10, 10, 30) == 0

    def test_unit(self):
        assert ga_cost(1, 1, 1, 1) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ga_cost(-1, 1, 1, 1)


class TestSampling:
    def test_genes_within_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            genome = sample_genome(rng)
            for name in PARAM_NAMES:
                lo, hi = PARAM_RANGES[name]
                assert lo <= getattr(genome, name) <= hi

    def test_uniform_moments(self):
        rng = np.random.default_rng(1)
        samples = [sample_genome(rng) for _ in range(10_000)]
        assert abs(np.mean([g.p_s for g in samples]) - 0.5) < 0.02
        assert abs(np.mean([g.p_r for g in samples]) - 0.5) < 0.02
        assert abs(np.mean([g.rho_u for g in samples]) - 2 * np.pi) < 0.15

    def test_exponential_rate_interpretation(self):
        rng = np.random.default_rng(2)
        samples = [sample_genome(rng) for _ in range(10_000)]
        # rate 10 -> mean 0.1; rate 5 -> mean 0.2
        assert abs(np.mean([g.lambda_d for g in samples]) - 0.1) / 0.1 < 0.1
        assert abs(np.mean([g.lambda_i for g in samples]) - 0.2) / 0.2 < 0.1


class TestOperators:
    def test_crossover_mixes_genes(self):
        a = sample_genome(np.random.default_rng(0))
        b = sample_genome(np.random.default_rng(1))
        child = crossover(a, b, np.random.default_rng(2))
        for name in PARAM_NAMES:
            assert getattr(child, name) in (getattr(a, name), getattr(b, name))

    def test_mutation_stays_in_range(self):
        rng = np.random.default_rng(4)
        genome = sample_genome(rng)
        for _ in range(500):
            genome = mutate(genome, rng, gene_prob=1.0)
            for name in PARAM_NAMES:
                lo, hi = PARAM_RANGES[name]
                assert lo <= getattr(genome, name) <= hi

    def test_zero_prob_mutation_is_identity(self):
        genome = sample_genome(np.random.default_rng(5))
        assert mutate(genome, np.random.default_rng(6), gene_prob=0.0) == genome


class TestEvaluate:
    def test_zero_duration_zero_fitness(self):
        config = desk_config(eval_duration=0.0, trials_per_genome=1)
        assert evaluate(DEFAULT_PARAMS, config, seeds=_trial_seeds(config, 0)) == 0.0

    def test_all_zero_genome_finishes(self):
        zero = CpfaParams(p_s=0.0, p_r=0.0, rho_u=0.0, lambda_i=0.0,
                          lambda_f=0.0, lambda_lp=0.0, lambda_d=0.0)
        config = desk_config(eval_duration=60.0, trials_per_genome=1)
        fitness = evaluate(zero, config, seeds=_trial_seeds(config, 0))
        assert np.isfinite(fitness) and fitness >= 0.0

    def test_deterministic(self):
        config = desk_config()
        seeds = [101, 202]
        a = evaluate(DEFAULT_PARAMS, config, seeds=seeds)
        b = evaluate(DEFAULT_PARAMS, config, seeds=seeds)
        assert a == b

    def test_trial_failure_is_raised_not_scored(self, monkeypatch):
        def broken(config):
            raise TrialError("policy init failed")

        monkeypatch.setattr(tuner, "run_trial", broken)
        with pytest.raises(TrialError, match="policy init failed"):
            evaluate(DEFAULT_PARAMS, desk_config(), seeds=[101])


class TestGaRun:
    def test_single_genome_single_generation(self):
        config = desk_config(population=1, generations=1, trials_per_genome=1,
                             eval_duration=30.0)
        best, history = ga_run(config)
        assert isinstance(best, CpfaParams)
        assert len(history) == 1
        assert history[0].best_fitness == history[0].best_so_far

    def test_best_so_far_monotone(self):
        best, history = ga_run(desk_config(seed=11))
        curve = [h.best_so_far for h in history]
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_deterministic_history(self):
        a_best, a_hist = ga_run(desk_config(seed=21))
        b_best, b_hist = ga_run(desk_config(seed=21))
        assert a_best == b_best
        assert [h.best_fitness for h in a_hist] == [h.best_fitness for h in b_hist]

    def test_elitism_floor(self):
        # the final best can never fall below the generation-0 best
        _, history = ga_run(desk_config(seed=31))
        assert history[-1].best_so_far >= history[0].best_fitness

    def test_history_csv(self, tmp_path):
        _, history = ga_run(desk_config(population=2, generations=2, trials_per_genome=1,
                                        eval_duration=30.0))
        path = tmp_path / "history.csv"
        save_history(history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "generation,best_fitness,mean_fitness,best_so_far"
        assert len(lines) == 3


class TestParallelism:
    def test_workers_do_not_change_results(self):
        serial = ga_run(desk_config(seed=77, population=3, generations=2,
                                    trials_per_genome=2, eval_duration=30.0))
        parallel = ga_run(desk_config(seed=77, population=3, generations=2,
                                      trials_per_genome=2, eval_duration=30.0, workers=2))
        assert serial[0] == parallel[0]
        assert [h.best_fitness for h in serial[1]] == [h.best_fitness for h in parallel[1]]
