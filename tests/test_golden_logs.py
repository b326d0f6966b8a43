"""Golden event-log hashes: the equivalence oracle for refactors.

Each case pins the SHA-256 of ``TrialResult.log_bytes()`` for one fixed
trial.  The cases cover every policy (the llm policy through the
in-process mock, with injected latency so decisions are held), all three
layouts, team sizes 3 and 10, two sampled genomes, and 120-240 s trials,
five of which outlive a pheromone waypoint and prune it.

A changed hash means the simulator now behaves differently.  That is a
behaviour change to be declared as one; never edit a hash to get green.
"""
import hashlib

import numpy as np
import pytest

from swarmforage.core import Arena, DEFAULT_PARAMS
from swarmforage.engine import TrialConfig, run_trial
from swarmforage.gateway import GatewayConfig
from swarmforage.layouts import Distribution, LayoutSpec
from swarmforage.tuner import sample_genome

_draws = np.random.default_rng(20260418)
GENOME_A = sample_genome(_draws)
GENOME_B = sample_genome(_draws)


def _mock(behavior, latency):
    return GatewayConfig(mode="mock", mock_behavior=behavior, injected_latency=latency)


# (name, policy, params, distribution, count, side, team, duration, seed, gateway, sha256)
CASES = [
    ("cascade-default-clustered", "cascade", DEFAULT_PARAMS, "clustered", 64, 6.0, 3, 240.0, 1,
     None, "f474888e83dc0e1d7c65ea7160663d162774f71c26d7be66d874b4217e0c9963"),
    ("cascade-default-powerlaw-t10", "cascade", DEFAULT_PARAMS, "powerlaw", 128, 8.0, 10, 120.0, 2,
     None, "eab235fee2e063e5b06c3d9b3de6f0e5d95915ff683bdadd5610b26dcce086f8"),
    ("cascade-default-random", "cascade", DEFAULT_PARAMS, "random", 64, 6.0, 3, 180.0, 3,
     None, "76f6d51030458fca880a2f6eeeff04fb8ddc549ce579a5abad66800ceb9e6ca7"),
    ("cascade-genome-a-powerlaw", "cascade", GENOME_A, "powerlaw", 64, 6.0, 3, 240.0, 4,
     None, "c75db5650ba5b39e5a886aef924dc5e8e5ef8ee03be5780cbde6b45939af163c"),
    ("cascade-genome-b-clustered-t10", "cascade", GENOME_B, "clustered", 128, 8.0, 10, 120.0, 5,
     None, "75824b1f7cc2d06cb00c4458a79572fb326e4e6df86c2c0b2e8cec49c07a0499"),
    ("scripted-clustered", "scripted", DEFAULT_PARAMS, "clustered", 64, 6.0, 3, 240.0, 6,
     None, "fc07d29bccb777787d37733c89d5650bfbfd969fa43f380a226fd8e01c4c122b"),
    ("scripted-random-t10", "scripted", DEFAULT_PARAMS, "random", 256, 10.0, 10, 120.0, 7,
     None, "c14af0e5bca149a5e0f232d639a04ba6cdb1278b31c468032cdf4e8c0b378f2f"),
    ("uninformed-powerlaw", "uninformed", DEFAULT_PARAMS, "powerlaw", 64, 6.0, 3, 240.0, 8,
     None, "16f4a9e3872e883b71c50420780c471bdba51509f7519a54b344d57cbd0081b0"),
    ("uninformed-clustered-t10", "uninformed", DEFAULT_PARAMS, "clustered", 128, 8.0, 10, 120.0, 9,
     None, "76ea7e14af951416afd5e47de2b7a6d9f19b93e1e8c93ab1762584e8c839ceb0"),
    ("llm-held-clustered", "llm", DEFAULT_PARAMS, "clustered", 64, 6.0, 3, 240.0, 10,
     _mock("scripted", 2.0), "45013dc21d7af231d9590472b9b3661cb3aa69ee9228eddb012afaa6a362a673"),
    ("llm-held-random-t10", "llm", DEFAULT_PARAMS, "random", 4, 10.0, 10, 180.0, 11,
     _mock("scripted", 5.0), "64c5bc0249e27f7500b7c3a8cf4b0838592e3231a9b4efc137b6e9bf3085df62"),
    ("llm-held-invalid-powerlaw", "llm", GENOME_A, "powerlaw", 64, 6.0, 3, 180.0, 12,
     _mock("always_invalid", 1.5), "d04f24243954e8118cdd141e92ef94f987d73136f549252f44e5893db2b1d461"),
]


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_log_bytes_match_the_golden_hash(case):
    _, policy, params, dist, count, side, team, duration, seed, gateway, expected = case
    arena = Arena.square(side)
    config = TrialConfig(
        arena=arena, team_size=team,
        layout=LayoutSpec(Distribution(dist), count, arena, seed=seed),
        params=params, policy=policy, duration=duration, seed=seed, gateway=gateway,
    )
    assert hashlib.sha256(run_trial(config).log_bytes()).hexdigest() == expected
