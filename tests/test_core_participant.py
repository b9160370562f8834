"""Unit tests of the participant state machine (driven through a tiny engine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import public_initial_centroids
from repro.config import ChiaroscuroConfig
from repro.core.participant import (
    ChiaroscuroParticipant,
    CommitteeRound,
    Exchange,
    Phase,
    Probe,
)
from repro.crypto.backends import PlainBackend
from repro.exceptions import ProtocolError
from repro.gossip.encrypted_sum import estimates_payload_bytes
from repro.gossip.messages import DiptychExchange, deserialize
from repro.simulation import CycleEngine


def make_participants(n=6, length=6, config=None, backend=None):
    config = config if config is not None else ChiaroscuroConfig().with_overrides(
        kmeans={"n_clusters": 2, "max_iterations": 3},
        privacy={"epsilon": 5.0, "noise_shares": 3},
        gossip={"cycles_per_aggregation": 3},
        crypto={"threshold": 2, "n_key_shares": 3},
        simulation={"n_participants": n, "seed": 0},
    )
    if backend is None:
        backend = PlainBackend(threshold=2, n_shares=3)
    centroids = public_initial_centroids(config.kmeans.n_clusters, length, 0.0, 1.0, seed=0)
    rng = np.random.default_rng(5)
    data = rng.uniform(0.0, 1.0, size=(n, length))
    participants = [
        ChiaroscuroParticipant(
            node_id=i,
            series_values=data[i],
            initial_centroids=centroids,
            config=config,
            backend=backend,
            noise_contributor=i < 3,
            n_noise_contributors=3,
            seed=i,
        )
        for i in range(n)
    ]
    return participants, config, data


class TestConstruction:
    def test_initial_state(self):
        participants, _config, _data = make_participants()
        participant = participants[0]
        assert participant.phase is Phase.ASSIGN
        assert participant.iteration == 0
        assert not participant.is_done
        assert participant.n_clusters == 2
        assert participant.series_length == 6

    def test_series_must_be_one_dimensional(self):
        participants, config, _data = make_participants()
        with pytest.raises(ProtocolError):
            ChiaroscuroParticipant(
                node_id=0,
                series_values=np.zeros((2, 3)),
                initial_centroids=participants[0].centroids,
                config=config,
                backend=participants[0].backend,
                noise_contributor=False,
                n_noise_contributors=1,
            )

    def test_centroid_length_must_match_series(self):
        participants, config, _data = make_participants()
        with pytest.raises(ProtocolError):
            ChiaroscuroParticipant(
                node_id=0,
                series_values=np.zeros(4),
                initial_centroids=np.zeros((2, 6)),
                config=config,
                backend=participants[0].backend,
                noise_contributor=False,
                n_noise_contributors=1,
            )


class TestStateMachine:
    def test_phase_progression_over_cycles(self):
        participants, config, _data = make_participants()
        engine = CycleEngine(participants, seed=0)
        engine.run_cycle()  # assignment
        assert all(p.phase is Phase.GOSSIP for p in participants)
        assert all(p.iteration == 1 for p in participants)
        assert all(p.assigned_cluster is not None for p in participants)
        engine.run(config.gossip.cycles_per_aggregation)  # gossip cycles
        assert all(p.phase is Phase.DECRYPT for p in participants)
        engine.run_cycle()  # decryption + convergence check
        assert all(p.phase in (Phase.ASSIGN, Phase.DONE) for p in participants)
        assert all(len(p.perturbed_means_history) == 1 for p in participants)

    def test_assignment_picks_closest_centroid(self):
        participants, _config, data = make_participants()
        participant = participants[0]
        participant._assignment_step()
        distances = np.linalg.norm(
            participant.centroids - data[0][None, :], axis=1
        )
        assert participant.assigned_cluster == int(np.argmin(distances))

    def test_noise_contributors_embed_noise(self):
        participants, _config, _data = make_participants()
        contributor = participants[0]       # noise contributor
        bystander = participants[5]         # not a contributor
        assert contributor._draw_noise_shares(1.0) is not None
        assert bystander._draw_noise_shares(1.0) is None

    def test_run_to_completion(self):
        participants, config, _data = make_participants()
        engine = CycleEngine(participants, seed=0)
        engine.run(60, stop_when=lambda eng: all(p.is_done for p in participants))
        assert all(p.is_done for p in participants)
        assert all(p.final_profiles is not None for p in participants)
        assert all(p.stop_reason != "" for p in participants)
        for participant in participants:
            assert participant.accountant.spent_epsilon <= config.privacy.epsilon + 1e-9

    def test_done_participants_stay_done(self):
        participants, _config, _data = make_participants()
        engine = CycleEngine(participants, seed=0)
        engine.run(60, stop_when=lambda eng: all(p.is_done for p in participants))
        profiles_before = [p.final_profiles.copy() for p in participants]
        engine.run(3)
        for before, participant in zip(profiles_before, participants):
            assert np.array_equal(before, participant.final_profiles)

    def test_budget_exhaustion_finishes_participant(self):
        config = ChiaroscuroConfig().with_overrides(
            kmeans={"n_clusters": 2, "max_iterations": 10,
                    "convergence_threshold": 0.0},
            privacy={"epsilon": 0.05, "noise_shares": 3, "budget_strategy": "uniform"},
            gossip={"cycles_per_aggregation": 2},
            crypto={"threshold": 2, "n_key_shares": 3},
            simulation={"n_participants": 6, "seed": 0},
        )
        participants, _config, _data = make_participants(config=config)
        for participant in participants:
            # A patience above max_iterations keeps the plateau criterion out
            # of the way: the run goes on until the budget is spent.
            participant.termination.quality_patience = 11
        engine = CycleEngine(participants, seed=0)
        engine.run(200, stop_when=lambda eng: all(p.is_done for p in participants))
        assert all(p.is_done for p in participants)
        for participant in participants:
            assert participant.accountant.spent_epsilon == pytest.approx(0.05)

    def test_assignment_history_tracks_every_iteration(self):
        participants, _config, _data = make_participants()
        engine = CycleEngine(participants, seed=0)
        engine.run(60, stop_when=lambda eng: all(p.is_done for p in participants))
        for participant in participants:
            assert len(participant.assignment_history) >= 1
            assert len(participant.assignment_history) >= len(
                participant.perturbed_means_history
            ) - 1


def drive(participant, answers, online=range(6)):
    """A scripted driver: one ``participant.step(...)`` fed canned answers.

    Returns the effects the step yielded.  The script must be exactly as
    long as the step's questions: a missing answer raises ``IndexError``, a
    spare one fails the assertion.
    """
    steps = participant.step(np.random.default_rng(0), lambda: sorted(online), 6)
    effects, answer, script = [], None, list(answers)
    while True:
        try:
            effect = steps.send(answer)
        except StopIteration:
            assert not script, f"the step never asked for {script}"
            return effects
        effects.append(effect)
        answer = script.pop(0)


def step_config(n_clusters=2, **gossip):
    return ChiaroscuroConfig().with_overrides(
        kmeans={"n_clusters": n_clusters, "max_iterations": 3},
        privacy={"epsilon": 5.0, "noise_shares": 3},
        gossip={"cycles_per_aggregation": 3, **gossip},
        crypto={"threshold": 2, "n_key_shares": 3},
        simulation={"n_participants": 6, "seed": 0},
    )


def gossiping_participant(config=None, backend=None):
    """Participant 5 (no noise-shares) past its first assignment — no
    engine anywhere."""
    config = config if config is not None else step_config()
    participant = make_participants(config=config, backend=backend)[0][5]
    assert drive(participant, []) == []  # the assignment step asks nothing
    assert participant.phase is Phase.GOSSIP
    return participant


def decrypting_participant(backend):
    """A participant with three clusters whose one gossip cycle found nobody."""
    participant = gossiping_participant(
        step_config(n_clusters=3, cycles_per_aggregation=1), backend
    )
    drive(participant, [], online={5})
    assert participant.phase is Phase.DECRYPT
    return participant


def backend_with(packing):
    backend = PlainBackend(threshold=2, n_shares=3, packing=packing,
                           packing_value_bound=2.0)
    assert backend.is_packed == (packing == "auto")
    return backend


class TestStepWithAScriptedDriver:
    """The protocol step where it lives: a generator fed canned answers —
    no engine, no transport, no socket."""

    def test_sync_adopts_the_profiles_and_ends_the_step(self):
        participant = gossiping_participant()
        profiles = np.full((2, 6), 0.25)
        effects = drive(participant, [{"status": "sync", "profiles": profiles}])
        assert [type(effect) for effect in effects] == [Probe]
        assert participant.is_done
        assert participant.stop_reason == "synchronized"
        assert np.array_equal(participant.final_profiles, profiles)
        assert participant.gossip_cycles_done == 0

    def test_adopt_jumps_reencrypts_and_keeps_sampling(self):
        participant = gossiping_participant(step_config(exchanges_per_cycle=2))
        centroids = participant.centroids + 0.125
        encryptions = participant.backend.counter.encryptions
        old_diptych = participant.diptych
        effects = drive(participant, [
            {"status": "adopt", "iteration": 2, "centroids": centroids.tolist()},
            {"status": "skip"},
        ])
        assert [type(effect) for effect in effects] == [Probe, Probe]
        assert [effect.iteration for effect in effects] == [1, 2]
        assert participant.iteration == 2
        assert np.array_equal(participant.centroids, centroids)
        assert participant.assignment_history[-1] == participant.assigned_cluster
        assert len(participant.assignment_history) == 2
        assert participant.diptych is not old_diptych
        assert participant.backend.counter.encryptions > encryptions
        assert participant.phase is Phase.GOSSIP
        assert participant.gossip_cycles_done == 1

    @pytest.mark.parametrize("answer", [
        {"status": "skip"},
        {"status": "error", "error": "not_hosted"},
    ])
    def test_skip_and_error_yield_no_exchange(self, answer):
        participant = gossiping_participant()
        diptych = (list(participant.diptych.data_estimates),
                   list(participant.diptych.noise_estimates))
        effects = drive(participant, [answer])
        assert [type(effect) for effect in effects] == [Probe]
        assert (participant.diptych.data_estimates,
                participant.diptych.noise_estimates) == diptych
        assert participant.gossip_cycles_done == 1

    def test_merge_yields_exactly_one_exchange(self):
        participant = gossiping_participant()
        effects = drive(participant, [{"status": "merge"}, None])
        probe, exchange = effects
        assert isinstance(probe, Probe) and isinstance(exchange, Exchange)
        assert probe.iteration == 1
        assert exchange.peer == probe.peer != participant.node_id
        message = deserialize(exchange.frame)
        assert isinstance(message, DiptychExchange)
        assert message.iteration == participant.iteration == 1
        diptych = participant.diptych
        assert exchange.modelled_bytes == sum(
            estimates_payload_bytes(participant.backend, [estimate])
            for estimate in diptych.data_estimates + diptych.noise_estimates
        )
        assert participant.gossip_cycles_done == 1

    def test_a_cycle_without_neighbour_still_counts(self):
        participant = gossiping_participant()
        assert drive(participant, [], online={participant.node_id}) == []
        assert participant.gossip_cycles_done == 1
        assert participant.phase is Phase.GOSSIP
        drive(participant, [], online={participant.node_id})
        drive(participant, [], online={participant.node_id})
        assert participant.phase is Phase.DECRYPT

    @pytest.mark.parametrize("packing", ["auto", "off"])
    def test_round_answered_none_retries_next_cycle(self, packing):
        participant = decrypting_participant(backend_with(packing))
        diptych = participant.diptych
        additions = participant.backend.counter.additions
        (round_,) = drive(participant, [None])
        assert isinstance(round_, CommitteeRound)
        assert len(round_.estimates) == 3
        assert participant.phase is Phase.DECRYPT
        assert participant.diptych is diptych
        assert participant.perturbed_means_history == []
        # What a failed round costs does not depend on the layout either:
        # the noise was added for every cluster before the round was asked.
        assert participant.backend.counter.additions - additions == sum(
            estimate.vector.n_ciphertexts for estimate in round_.estimates
        )

    @pytest.mark.parametrize("packing", ["auto", "off"])
    def test_answered_round_converges(self, packing):
        participant = decrypting_participant(backend_with(packing))
        values = np.append(np.linspace(0.1, 0.9, 6) / 6.0, 1.0 / 6.0)
        (round_,) = drive(participant, [[values, np.zeros(7), np.zeros(7)]])
        assert len(round_.estimates) == 3
        assert participant.phase in (Phase.ASSIGN, Phase.DONE)
        assert participant.diptych is None
        assert len(participant.perturbed_means_history) == 1
