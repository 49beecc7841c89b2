"""Hierarchical cooperative paradigm (paper Recommendation 9).

Agents are grouped into clusters.  Within a cluster, the cluster lead
plans jointly for its members (one LLM call per cluster, coordination
penalty capped at the cluster size); across clusters, only the leads
exchange one dialogue round.  This bounds both failure modes the paper
identifies at scale: the centralized planner's joint-action-space blowup
(n_joint ≤ cluster size) and the decentralized dialogue explosion
(messages ∝ #clusters, not #agents).
"""

from __future__ import annotations

from repro.core.agent import EmbodiedAgent, PerceptionBundle
from repro.core.paradigms.base import ParadigmLoop
from repro.core.types import Decision

CLUSTER_SYSTEM_TEXT = (
    "You coordinate a small robot cluster. Choose one candidate "
    "action per cluster member."
)


def cluster_agents(agents: list[EmbodiedAgent], cluster_size: int) -> list[list[EmbodiedAgent]]:
    """Partition agents into contiguous clusters of at most ``cluster_size``."""
    if cluster_size < 1:
        raise ValueError(f"cluster_size must be >= 1: {cluster_size}")
    return [agents[start : start + cluster_size] for start in range(0, len(agents), cluster_size)]


class HierarchicalLoop(ParadigmLoop):
    """Clustered cooperation: central within clusters, decentral across."""

    def _build(self) -> None:
        super()._build()
        self.clusters = cluster_agents(
            self.agents, self.config.optimizations.hierarchy_cluster_size
        )
        #: Agent name -> its cluster's lead (the cluster's first agent).
        self._lead_of = {member.name: cluster[0] for cluster in self.clusters for member in cluster}

    def step(self, step: int) -> None:
        bundles = self.perceive_all(step)
        self._lead_dialogue(step, bundles)
        decisions: dict[str, Decision] = {}
        for cluster in self.clusters:
            decisions.update(self._cluster_plan(step, cluster, bundles))
        # Cluster plans are issued independently per lead: under batched
        # serving they dispatch here as one batch across clusters.
        self.flush_inference()
        self.execute_team(step, decisions, bundles, self._lead_of)

    # ------------------------------------------------------------------ #
    # Cross-cluster dialogue: leads only, one round
    # ------------------------------------------------------------------ #

    def _lead_dialogue(self, step: int, bundles: dict[str, PerceptionBundle]) -> None:
        leads = [cluster[0] for cluster in self.clusters]
        if len(leads) < 2:
            return
        for lead in leads:
            if lead.comm is None:
                continue
            bundle = bundles[lead.name]
            recipients = tuple(other.name for other in leads if other is not lead)
            known = list(bundle.current_facts) + bundle.memory_facts
            self.speak(step, lead, recipients, known, bundles)
        # Cluster planning reads the leads' merged beliefs next.
        self.bus.flush(bundles)
        # The leads' round of composes is the phase-concurrent unit.
        self.flush_inference()

    # ------------------------------------------------------------------ #
    # Within-cluster joint planning
    # ------------------------------------------------------------------ #

    def _cluster_plan(
        self,
        step: int,
        cluster: list[EmbodiedAgent],
        bundles: dict[str, PerceptionBundle],
    ) -> dict[str, Decision]:
        lead = cluster[0]
        lead_bundle = bundles[lead.name]
        # Members' observations reach the lead's beliefs only: unlike the
        # centralized feedback merge, nothing is stored in its memory.
        for member in cluster[1:]:
            lead_bundle.beliefs.update(bundles[member.name].current_facts)
        candidates_by_agent = {
            member.name: self.env.candidates(member.name, lead_bundle.beliefs)
            for member in cluster
        }
        prompt = self.joint_call(
            step,
            lead,
            lead_bundle,
            candidates_by_agent,
            CLUSTER_SYSTEM_TEXT,
            "cluster_plan",
            lead_bundle.memory_facts,
        )
        return self.joint_decisions(step, lead, cluster, candidates_by_agent, prompt, prompt.tokens)
