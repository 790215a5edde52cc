"""Tests for repro.model.conference and repro.model.builder."""

import numpy as np
import pytest

from repro.errors import ModelError, UnknownEntityError
from repro.model.builder import ConferenceBuilder
from repro.model.representation import PAPER_LADDER
from tests.conftest import PAIR_D, PAIR_H, build_pair_conference


class TestThetaDerivation:
    def test_no_transcoding_when_demands_match_upstreams(self):
        conf = build_pair_conference("720p", "480p", "480p", "720p")
        # u1 demands 720p of u0 (== u0 upstream); u0 demands 480p of u1.
        assert conf.theta_sum == 0

    def test_transcoding_pair_created(self):
        conf = build_pair_conference("720p", "360p", "360p", "480p")
        # u1 demands 480p of u0's 720p stream -> one task (0 -> 1).
        assert conf.transcode_pairs == ((0, 1),)
        assert conf.pair_index(0, 1) == 0
        with pytest.raises(UnknownEntityError):
            conf.pair_index(1, 0)

    def test_pair_index_lookup(self):
        conf = build_pair_conference("720p", "360p", "360p", "480p")
        assert conf.pair_index(0, 1) == 0
        with pytest.raises(UnknownEntityError):
            conf.pair_index(1, 0)

    def test_theta_never_set_across_sessions(self):
        builder = ConferenceBuilder(PAPER_LADDER)
        builder.add_agent(name="L0")
        u0 = builder.user("720p", "480p")
        u1 = builder.user("480p", "720p")
        u2 = builder.user("720p", "480p")
        u3 = builder.user("480p", "720p")
        builder.add_session(u0, u1)
        builder.add_session(u2, u3)
        conf = builder.build(
            inter_agent_ms=np.zeros((1, 1)),
            agent_user_ms=np.full((1, 4), 10.0),
        )
        # u2 would demand 480p of u0's 720p stream in a shared session.
        assert conf.transcode_pairs == ()
        for destination in (2, 3):
            with pytest.raises(UnknownEntityError):
                conf.pair_index(0, destination)

    def test_session_pair_indices_partition_pairs(self):
        builder = ConferenceBuilder(PAPER_LADDER)
        builder.add_agent(name="L0")
        ids = [builder.user("720p", "480p") for _ in range(4)]
        builder.add_session(ids[0], ids[1])
        builder.add_session(ids[2], ids[3])
        conf = builder.build(
            inter_agent_ms=np.zeros((1, 1)),
            agent_user_ms=np.full((1, 4), 10.0),
        )
        all_indices = sorted(
            i
            for sid in range(conf.num_sessions)
            for i in conf.session_pair_indices(sid)
        )
        assert all_indices == list(range(conf.theta_sum))


class TestValidation:
    def test_user_in_two_sessions_rejected(self):
        builder = ConferenceBuilder(PAPER_LADDER)
        builder.add_agent()
        u0 = builder.user("720p")
        u1 = builder.user("720p")
        builder.add_session(u0, u1)
        builder.add_session(u0, u1)
        with pytest.raises(ModelError, match="exactly one session"):
            builder.build(
                inter_agent_ms=np.zeros((1, 1)),
                agent_user_ms=np.full((1, 2), 10.0),
            )

    def test_orphan_user_rejected(self):
        builder = ConferenceBuilder(PAPER_LADDER)
        builder.add_agent()
        builder.user("720p")
        builder.user("720p")
        with pytest.raises(ModelError, match="without a session"):
            builder.build(
                inter_agent_ms=np.zeros((1, 1)),
                agent_user_ms=np.full((1, 2), 10.0),
            )

    def test_topology_shape_mismatch_rejected(self):
        builder = ConferenceBuilder(PAPER_LADDER)
        builder.add_agent()
        u0 = builder.user("720p")
        u1 = builder.user("720p")
        builder.add_session(u0, u1)
        with pytest.raises(ModelError):
            builder.build(
                inter_agent_ms=np.zeros((1, 1)),
                agent_user_ms=np.full((1, 3), 10.0),
            )

    def test_nonpositive_dmax_rejected(self):
        builder = ConferenceBuilder(PAPER_LADDER, dmax_ms=0.0)
        builder.add_agent()
        u0 = builder.user("720p")
        u1 = builder.user("720p")
        builder.add_session(u0, u1)
        with pytest.raises(ModelError):
            builder.build(
                inter_agent_ms=np.zeros((1, 1)),
                agent_user_ms=np.full((1, 2), 10.0),
            )


class TestAccessors:
    def test_participants(self):
        conf = build_pair_conference("720p", "480p", "480p", "720p")
        assert conf.participants(0) == (1,)
        assert conf.session_of(1) == 0

    def test_unknown_ids_raise(self):
        conf = build_pair_conference("720p", "480p", "480p", "720p")
        with pytest.raises(UnknownEntityError):
            conf.user(99)
        with pytest.raises(UnknownEntityError):
            conf.agent(99)
        with pytest.raises(UnknownEntityError):
            conf.session(99)
        with pytest.raises(UnknownEntityError):
            conf.session_of(99)

    def test_upstream_kappa(self):
        conf = build_pair_conference("720p", "360p", "360p", "480p")
        assert list(conf.upstream_kappa()) == [5.0, 1.0]

    def test_state_space_log_size(self):
        conf = build_pair_conference("720p", "360p", "360p", "480p")
        # 2 users + 1 task, 2 agents -> 3 * ln 2.
        assert conf.state_space_log_size() == pytest.approx(3 * np.log(2))

    def test_describe_mentions_sessions(self):
        conf = build_pair_conference("720p", "360p", "360p", "480p")
        text = conf.describe()
        assert "2 users" in text and "s0" in text


class TestBuilder:
    def test_unknown_representation_rejected(self):
        builder = ConferenceBuilder(PAPER_LADDER)
        with pytest.raises(Exception):
            builder.user("4k")

    def test_session_with_unknown_user_rejected(self):
        builder = ConferenceBuilder(PAPER_LADDER)
        builder.add_agent()
        with pytest.raises(ModelError):
            builder.add_session(0, 1)

    def test_build_requires_topology(self):
        builder = ConferenceBuilder(PAPER_LADDER)
        builder.add_agent()
        u0 = builder.user("720p")
        u1 = builder.user("720p")
        builder.add_session(u0, u1)
        with pytest.raises(ModelError):
            builder.build()

    def test_ids_are_dense(self):
        conf = build_pair_conference("720p", "480p", "480p", "720p")
        assert [u.uid for u in conf.users] == [0, 1]
        assert [a.aid for a in conf.agents] == [0, 1]

    def test_pair_matrices_visible(self):
        conf = build_pair_conference("720p", "480p", "480p", "720p")
        assert np.array_equal(conf.topology.inter_agent_ms, PAIR_D)
        assert np.array_equal(conf.topology.agent_user_ms, PAIR_H)
