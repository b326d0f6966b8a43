"""Golden event-log hashes: the equivalence oracle for refactors.

Each case pins the SHA-256 of ``TrialResult.log_bytes()`` for one fixed
trial, and beside it the result's deposits and LLM tallies.  The cases
cover every policy (the llm policy through the in-process mock, with
injected latency so decisions are held), all three layouts, team sizes
3 and 10, two sampled genomes, and 120-300 s trials, five of which
outlive a pheromone waypoint and prune it.  Ten robots in a 6 m
clustered arena give the densest yield, veto and pickup traffic, and a
fast-decaying genome lays and prunes waypoints all through its trial.  Three llm cases choose an
at-centre action that cannot execute, so the choice degrades to
uninformed search.  In two llm cases every call falls back to the
cascade: one times out, and one gets a reply with no JSON in it.  In
one case the policy raises on every decision, so each falls back to the
cascade with a POLICY_ERROR.

A changed hash means the simulator now behaves differently.  That is a
behaviour change to be declared as one; never edit a recorded value to
get green.
"""
import dataclasses
import hashlib

import numpy as np
import pytest

from swarmforage import gateway
from swarmforage.core import Arena, DEFAULT_PARAMS
from swarmforage.engine import TrialConfig, run_trial
from swarmforage.gateway import GatewayConfig
from swarmforage.layouts import Distribution, LayoutSpec
from swarmforage.policy import DecisionPolicy
from swarmforage.tuner import sample_genome

_draws = np.random.default_rng(20260418)
GENOME_A = sample_genome(_draws)
GENOME_B = sample_genome(_draws)
# Lays a waypoint on almost every deposit (P(lay) = poisson_cdf(density,
# lambda_lp) is near 1 for a small lambda_lp) and expires it within 7 s,
# so prunes drop the oldest waypoints while younger ones stay.
CHURN_PARAMS = dataclasses.replace(DEFAULT_PARAMS, lambda_lp=0.5, lambda_d=1.0)


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
    ("llm-degraded-pheromone-held-random", "llm", DEFAULT_PARAMS, "random", 8, 8.0, 3, 300.0, 26,
     _mock("fixed:FOLLOW_PHEROMONE", 2.0),
     "bc603cae36a19001431c59546b94666e2af05008de65873cf00d768f6d584351"),
    ("llm-degraded-pheromone-held-sparse", "llm", DEFAULT_PARAMS, "random", 4, 10.0, 3, 300.0, 19,
     _mock("fixed:FOLLOW_PHEROMONE", 2.0),
     "f320da6fa7aa29782bd685cdfc2731af1d8dd9c37ad694a8eb5119ecfca6995f"),
    ("llm-degraded-fidelity-sparse", "llm", DEFAULT_PARAMS, "random", 4, 10.0, 3, 300.0, 19,
     _mock("fixed:USE_SITE_FIDELITY", None),
     "eba844bb8b9fe5189f62534d1f1084919fa64fa7e5ee1d4c0db03e8e392c931c"),
    ("llm-timeout-held-clustered", "llm", DEFAULT_PARAMS, "clustered", 64, 6.0, 3, 240.0, 30,
     _mock("always_timeout", 2.0),
     "ded45b71589110afa292719b25af1e64ea3f83edf38940e1852940936c2773d9"),
    ("llm-parse-error-held-powerlaw", "llm", DEFAULT_PARAMS, "powerlaw", 64, 6.0, 3, 240.0, 31,
     _mock("scripted", 1.0), "b85460ad4c51ff1e39acfab6606445219a2241fa7ae360a68a15fdb32a6a6d33"),
    ("policy-error-clustered", "scripted", DEFAULT_PARAMS, "clustered", 64, 6.0, 3, 240.0, 16,
     None, "ace90dd83855143af1b22fca072e6e395f61eb765350e863d717580983ad5167"),
    ("cascade-dense-clustered-t10", "cascade", DEFAULT_PARAMS, "clustered", 64, 6.0, 10, 240.0, 42,
     None, "706517106781a168e867c7110b11e1cd24a74a2d468d6495de7926f7fb7bb5dd"),
    ("cascade-pheromone-churn-powerlaw-t10", "cascade", CHURN_PARAMS, "powerlaw", 64, 6.0, 10,
     240.0, 62, None, "12efb1c0b229775cb1d25dd9dd03dc29deea57e0cdc815b19fdcc81de07ca21f"),
]

# name -> (deposits, llm_calls, llm_fallbacks, outcome_counts, latency_samples)
FIGURES = {
    "cascade-default-clustered": (2, 0, 0, {}, []),
    "cascade-default-powerlaw-t10": (7, 0, 0, {}, []),
    "cascade-default-random": (5, 0, 0, {}, []),
    "cascade-genome-a-powerlaw": (1, 0, 0, {}, []),
    "cascade-genome-b-clustered-t10": (1, 0, 0, {}, []),
    "scripted-clustered": (3, 0, 0, {}, []),
    "scripted-random-t10": (13, 0, 0, {}, []),
    "uninformed-powerlaw": (21, 0, 0, {}, []),
    "uninformed-clustered-t10": (16, 0, 0, {}, []),
    "llm-held-clustered": (3, 5, 0, {"ok": 5}, [2.0] * 5),
    "llm-held-random-t10": (3, 36, 0, {"ok": 36}, [5.0] * 36),
    "llm-held-invalid-powerlaw": (12, 13, 13, {"out_of_whitelist": 13}, [1.5] * 13),
    "llm-degraded-pheromone-held-random":
        (8, 19, 11, {"ok": 8, "out_of_whitelist": 11}, [2.0] * 19),
    "llm-degraded-pheromone-held-sparse":
        (2, 22, 19, {"out_of_whitelist": 19, "ok": 3}, [2.0] * 22),
    "llm-degraded-fidelity-sparse":
        (3, 21, 17, {"out_of_whitelist": 17, "ok": 4}, [0.0] * 21),
    "llm-timeout-held-clustered": (11, 17, 17, {"timeout": 17}, [30.0] * 17),
    "llm-parse-error-held-powerlaw": (3, 3, 3, {"parse_error": 3}, [1.0] * 3),
    "policy-error-clustered": (15, 0, 0, {}, []),
    "cascade-dense-clustered-t10": (16, 0, 0, {}, []),
    "cascade-pheromone-churn-powerlaw-t10": (9, 0, 0, {}, []),
}


class _RaisingPolicy(DecisionPolicy):
    """Raises on every decision, so the controller falls back each time."""

    def decide(self, event):
        raise RuntimeError(f"no answer for {event.robot_id}")


# Cases that replace the named policy with their own, one per robot.
POLICY_FACTORIES = {
    "policy-error-clustered": lambda index: _RaisingPolicy(),
}

# Cases whose mock endpoint replies in prose with no JSON object.
PROSE_REPLIES = {"llm-parse-error-held-powerlaw"}


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_log_bytes_match_the_golden_hash(case, monkeypatch):
    name, policy, params, dist, count, side, team, duration, seed, gateway_config, expected = case
    if name in PROSE_REPLIES:
        monkeypatch.setattr(gateway, "mock_content_for",
                            lambda behavior, request: "I think you should explore")
    arena = Arena.square(side)
    config = TrialConfig(
        arena=arena, team_size=team,
        layout=LayoutSpec(Distribution(dist), count, arena, seed=seed),
        params=params, policy=policy, duration=duration, seed=seed, gateway=gateway_config,
    )
    result = run_trial(config, policy_factory=POLICY_FACTORIES.get(name))
    assert hashlib.sha256(result.log_bytes()).hexdigest() == expected
    figures = (result.deposits, result.llm_calls, result.llm_fallbacks,
               result.outcome_counts, result.latency_samples)
    assert figures == FIGURES[name]
