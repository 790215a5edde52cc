"""Conference data model (paper Sec. II, Table I).

This package defines the static description of a cloud-assisted video
conferencing deployment:

* :class:`~repro.model.representation.Representation` — a stream
  format/bitrate configuration, and the standard ladders used in the paper;
* :class:`~repro.model.user.User` / :class:`~repro.model.user.Session` —
  conference participants, their upstream representation and per-source
  downstream demands;
* :class:`~repro.model.agent.Agent` — a cloud VM described by the paper's
  quadruple ``{u_l, d_l, t_l, sigma_l(.)}``;
* :class:`~repro.model.topology.Topology` — the inter-agent delay matrix
  ``D`` and the agent-to-user delay matrix ``H``;
* :class:`~repro.model.conference.Conference` — the validated, immutable
  aggregate of all of the above, with the transcoding pairs (the
  ``theta_uv = 1`` relation) derived on construction;
* :class:`~repro.model.builder.ConferenceBuilder` — a fluent constructor.
"""

from repro.model.agent import Agent, LinearTranscodingLatency, TranscodingLatencyModel
from repro.model.builder import ConferenceBuilder
from repro.model.conference import Conference
from repro.model.representation import (
    PAPER_LADDER,
    Representation,
    RepresentationSet,
)
from repro.model.topology import Topology
from repro.model.user import Session, User

__all__ = [
    "Agent",
    "Conference",
    "ConferenceBuilder",
    "LinearTranscodingLatency",
    "PAPER_LADDER",
    "Representation",
    "RepresentationSet",
    "Session",
    "Topology",
    "TranscodingLatencyModel",
    "User",
]
