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
from repro.core.clock import ModuleName
from repro.core.paradigms.base import ParadigmLoop
from repro.core.paradigms.centralized import filter_assigned
from repro.core.types import Decision, StepRecord
from repro.llm.behavior import DecisionRequest
from repro.llm.prompt import PromptBuilder
from repro.llm.requests import InferenceRequest
from repro.llm.simulated import OUTPUT_TOKENS


def cluster_agents(
    agents: list[EmbodiedAgent], cluster_size: int
) -> list[list[EmbodiedAgent]]:
    """Partition agents into contiguous clusters of at most ``cluster_size``."""
    if cluster_size < 1:
        raise ValueError(f"cluster_size must be >= 1: {cluster_size}")
    return [
        agents[start : start + cluster_size]
        for start in range(0, len(agents), cluster_size)
    ]


class HierarchicalLoop(ParadigmLoop):
    """Clustered cooperation: central within clusters, decentral across."""

    def __init__(self, config, task, seed, settings=None) -> None:
        super().__init__(config, task, seed, settings)
        size = config.optimizations.hierarchy_cluster_size
        if size < 1:
            raise ValueError("HierarchicalLoop requires hierarchy_cluster_size >= 1")
        self.clusters = cluster_agents(self.agents, size)

    def step(self, step: int) -> None:
        bundles = self.perceive_all(step)
        self._lead_dialogue(step, bundles)
        decisions: dict[str, Decision] = {}
        for cluster in self.clusters:
            decisions.update(self._cluster_plan(step, cluster, bundles))
        # Cluster plans are issued independently per lead: under batched
        # serving they dispatch here as one batch across clusters.
        self.flush_inference()
        for agent in self.agents:
            decision = decisions[agent.name]
            if agent is self._lead_of(agent):
                self.execute_and_reflect(step, agent, bundles[agent.name], decision)
            else:
                outcome = agent.act(self.env, decision)
                corrected = False
                lead = self._lead_of(agent)
                if lead.reflection is not None:
                    report = lead.reflection.review(step, decision, outcome)
                    if report.judged_failure:
                        corrected = True
                        lead.state.add_blacklist(decision.subgoal, step)
                agent.state.note_outcome(
                    decision,
                    wasted=self.is_wasteful(decision, outcome),
                    corrected=corrected,
                )
                self.metrics.record_step(
                    StepRecord(
                        step=step,
                        agent=agent.name,
                        subgoal=decision.subgoal,
                        fault=decision.fault,
                        reflected=corrected,
                        primitive_count=outcome.primitive_count,
                        execution_success=outcome.success,
                    )
                )

    def _lead_of(self, agent: EmbodiedAgent) -> EmbodiedAgent:
        for cluster in self.clusters:
            if agent in cluster:
                return cluster[0]
        raise LookupError(f"agent {agent.name} not in any cluster")

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
            message = lead.comm.compose(
                step=step,
                recipients=tuple(other.name for other in leads if other is not lead),
                known_facts=list(bundle.current_facts) + bundle.memory_facts,
                intent=lead.state.last_intent,
                dialogue=bundle.dialogue,
            )
            if message is None:
                continue
            self.deliver_message(message, bundles)
        # Cluster planning reads the leads' merged beliefs next.
        self.flush_deliveries(bundles)
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
        for member in cluster[1:]:
            lead_bundle.beliefs.update(bundles[member.name].current_facts)
        candidates_by_agent = {
            member.name: self.env.candidates(member.name, lead_bundle.beliefs)
            for member in cluster
        }
        builder = PromptBuilder(
            system_text=(
                "You coordinate a small robot cluster. Choose one candidate "
                "action per cluster member."
            ),
            task_text=lead.planner.task_text,
        )
        builder.observation(lead_bundle.observation)
        builder.memory(lead_bundle.memory_facts)
        builder.dialogue(lead_bundle.dialogue)
        for name, candidates in candidates_by_agent.items():
            builder.candidates(candidates)
            builder.extra("agent_header", f"Options above are for {name}.")
        prompt = builder.build()
        output_tokens = OUTPUT_TOKENS["plan"] + 45 * (len(cluster) - 1)
        self.scheduler.submit(
            lead.planner_llm,
            InferenceRequest(
                kind="completion",
                purpose="plan",
                prompt=prompt,
                module=ModuleName.PLANNING,
                phase="cluster_plan",
                agent=lead.name,
                step=step,
                output_tokens=output_tokens,
            ),
        )
        decisions: dict[str, Decision] = {}
        blacklist = lead.state.blacklisted(step)
        assigned: set[tuple[str, str]] = set()
        for member in cluster:
            request = DecisionRequest(
                candidates=filter_assigned(candidates_by_agent[member.name], assigned),
                difficulty=self.env.task.difficulty,
                n_joint=len(cluster),
                blacklist=blacklist,
            )
            outcome = lead.planner_llm.kernel.decide(
                request, prompt.tokens, lead.context.rng
            )
            decision = Decision(
                subgoal=outcome.candidate.subgoal,
                fault=outcome.fault,
                prompt_tokens=prompt.tokens if member is lead else 0,
                output_tokens=0,
                latency=0.0,
            )
            decision = member.state.maybe_repeat_fault(decision, lead.context.rng)
            self.metrics.record_fault(decision.fault)
            decisions[member.name] = decision
            member.state.last_intent = decision.subgoal
            if decision.subgoal.target:
                assigned.add((decision.subgoal.name, decision.subgoal.target))
        return decisions
