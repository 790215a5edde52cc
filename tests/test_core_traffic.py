"""Hand-computed accounting of the mu formula.

Every usage case runs twice: on the per-flow oracle
(``compute_session_usage``) and on the production kernel's one-assignment
usage pass (:meth:`ConferenceArrays.assignment_usage`).

Fixture geometry (conftest): agents L0/L1, D = 20 ms, H[L0,u0]=10,
H[L1,u1]=8.  Bitrates: 720p=5, 480p=2.5, 360p=1.
"""

import numpy as np
import pytest

from repro.core.arrays import arrays_for
from repro.core.assignment import Assignment
from repro.errors import ModelError
from tests.conftest import build_pair_conference
from tests.flow_oracle import (
    compute_session_usage,
    stream_mu,
    total_inter_agent_traffic,
)


def kernel_session_usage(conf, assignment, sid):
    return arrays_for(conf).assignment_usage(assignment, sid)


@pytest.fixture(
    params=[compute_session_usage, kernel_session_usage],
    ids=["flow_oracle", "kernel"],
)
def session_usage(request):
    return request.param


def split_assignment(conf, task_agent=0):
    """u0 on L0, u1 on L1 (and u2 on L0 when present)."""
    ua = np.array([0, 1] + [0] * (conf.num_users - 2))
    ta = np.full(conf.theta_sum, task_agent)
    return Assignment(ua, ta)


class TestNoTranscoding:
    """u0 up 720p / u1 demands 720p; u1 up 480p / u0 demands 480p."""

    @pytest.fixture()
    def conf(self):
        return build_pair_conference("720p", "480p", "480p", "720p")

    def test_raw_streams_cross_once(self, conf, session_usage):
        usage = session_usage(conf, split_assignment(conf), 0)
        # u0's 5 Mbps raw goes L0 -> L1; u1's 2.5 Mbps goes L1 -> L0.
        assert usage.inter_in[0] == pytest.approx(2.5)
        assert usage.inter_in[1] == pytest.approx(5.0)
        assert usage.total_inter_agent_mbps == pytest.approx(7.5)

    def test_lastmile_terms(self, conf, session_usage):
        usage = session_usage(conf, split_assignment(conf), 0)
        # download = own users' upstream + incoming inter-agent.
        assert usage.download[0] == pytest.approx(5.0 + 2.5)
        assert usage.download[1] == pytest.approx(2.5 + 5.0)
        # upload = streams delivered to own users + outgoing inter-agent.
        assert usage.upload[0] == pytest.approx(2.5 + 5.0)
        assert usage.upload[1] == pytest.approx(5.0 + 2.5)

    def test_co_located_users_generate_no_inter_traffic(self, conf, session_usage):
        both_l0 = Assignment(np.array([0, 0]), np.zeros(0, dtype=np.int64))
        usage = session_usage(conf, both_l0, 0)
        assert usage.total_inter_agent_mbps == 0.0

    def test_no_transcodes(self, conf, session_usage):
        usage = session_usage(conf, split_assignment(conf), 0)
        assert usage.transcodes.sum() == 0


class TestWithTranscoding:
    """u0 up 720p, u1 demands 480p (one task); u1 up 360p demanded raw."""

    @pytest.fixture()
    def conf(self):
        return build_pair_conference("720p", "360p", "360p", "480p")

    def test_transcode_at_source_agent(self, conf, session_usage):
        usage = session_usage(conf, split_assignment(conf, task_agent=0), 0)
        # Transcoded 2.5 ships L0 -> L1; raw 720p never crosses.
        assert usage.inter_in[1] == pytest.approx(2.5)
        # u1's raw 1.0 ships L1 -> L0.
        assert usage.inter_in[0] == pytest.approx(1.0)
        assert usage.transcodes[0] == 1
        assert usage.transcodes[1] == 0

    def test_transcode_at_destination_agent(self, conf, session_usage):
        usage = session_usage(conf, split_assignment(conf, task_agent=1), 0)
        # Raw 5.0 ships L0 -> L1 for transcoding there; output is local.
        assert usage.inter_in[1] == pytest.approx(5.0)
        assert usage.transcodes[1] == 1

    def test_stream_mu_matrix_orientation(self, conf):
        mu = stream_mu(conf, split_assignment(conf, task_agent=0), 0, source=0)
        assert mu[0, 1] == pytest.approx(2.5)  # from L0 into L1
        assert mu[1, 0] == 0.0

    def test_mu_excludes_source_own_agent(self, conf):
        """The published (1 - lambda_lu) factor: transcoded traffic back
        into the source's own agent is not charged by mu."""
        # Task at L1, destination u1 also at L1 -> nothing flows back to L0.
        mu = stream_mu(conf, split_assignment(conf, task_agent=1), 0, source=0)
        assert mu[1, 0] == 0.0

    def test_unassigned_user_raises(self, conf, session_usage):
        with pytest.raises(ModelError):
            session_usage(conf, Assignment.empty(conf), 0)


class TestSharedTranscodeOutput:
    """Three users: u1 and u2 both demand 480p of u0's 720p stream."""

    @pytest.fixture()
    def conf(self):
        from tests.conftest import build_shared_dest_conference

        return build_shared_dest_conference()

    def test_one_task_serves_two_destinations(self, conf, session_usage):
        assert conf.theta_sum == 2  # (0->1) and (0->2)
        # u0, u2 on L0; u1 on L1; both tasks at L0.
        assignment = Assignment(np.array([0, 1, 0]), np.array([0, 0]))
        usage = session_usage(conf, assignment, 0)
        # A single (u0, 480p) task occupies one slot...
        assert usage.transcodes[0] == 1
        # ...and one 2.5 Mbps copy crosses to L1 (u2 consumes locally).
        mu = stream_mu(conf, assignment, 0, source=0)
        assert mu[0, 1] == pytest.approx(2.5)

    def test_split_tasks_occupy_two_slots(self, conf, session_usage):
        # Same demands, but the two pairs are placed on different agents.
        assignment = Assignment(np.array([0, 1, 0]), np.array([0, 1]))
        usage = session_usage(conf, assignment, 0)
        assert usage.transcodes[0] == 1
        assert usage.transcodes[1] == 1


class TestTotals:
    def test_total_matches_session_sum(self, proto_conf, session_usage):
        from repro.core.nearest import nearest_assignment

        assignment = nearest_assignment(proto_conf)
        total = total_inter_agent_traffic(proto_conf, assignment)
        by_session = sum(
            session_usage(proto_conf, assignment, sid).total_inter_agent_mbps
            for sid in range(proto_conf.num_sessions)
        )
        assert total == pytest.approx(by_session)

    def test_inter_in_equals_inter_out_globally(self, proto_conf, session_usage):
        from repro.core.nearest import nearest_assignment

        assignment = nearest_assignment(proto_conf)
        for sid in range(proto_conf.num_sessions):
            usage = session_usage(proto_conf, assignment, sid)
            assert usage.inter_in.sum() == pytest.approx(usage.inter_out.sum())
