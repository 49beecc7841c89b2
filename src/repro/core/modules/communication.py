"""Communication module: LLM-generated inter-agent messages.

Message composition is an LLM generation call whose prompt includes the
(growing) dialogue history — the token-accumulation mechanism of Fig. 6.
Delivery merges the payload facts into receivers' memories and counts how
many were *novel*; the resulting usefulness ratio is the quantity behind
the paper's "only ~20 % of CoELA's messages contribute" observation.

Optimizations hosted here:

- ``plan_then_comm`` (Rec. 8): the caller only invokes :meth:`compose`
  when the planner flagged communication as necessary.
- ``comm_filter`` (Rec. 10): :meth:`compose` short-circuits (no LLM call)
  when the sender has nothing new to share since its last message.

Payload staging: the sharable payload is a pure function of the
known-facts snapshot fixed at perceive time, so multi-round dialogue
phases reuse one sorted selection per step
(:meth:`CommunicationModule._payload_for`); delivery itself is the
paradigm loops' job and rides the step-batched :mod:`repro.core.bus`.
"""

from __future__ import annotations

from repro.core.clock import ModuleName
from repro.core.modules.base import ModuleContext
from repro.core.types import Fact, Message, Subgoal
from repro.llm.prompt import COMMUNICATOR_SYSTEM_TEXT, PromptBuilder
from repro.llm.requests import InferenceRequest
from repro.llm.simulated import SimulatedLLM

#: How many recently-learned facts a message shares.
MESSAGE_FACT_BUDGET = 4

#: Relations worth telling teammates about: discoveries about the world.
#: Self-state (rooms the sender visited, objects it delivered) is excluded
#: — receivers observe outcomes themselves, and rebroadcasting own status
#: is the redundant chatter the paper measures.
SHARABLE_RELATIONS = frozenset({"located_in", "at_cell", "stage"})


class CommunicationModule:
    """Compose and deliver messages for one agent."""

    def __init__(
        self,
        context: ModuleContext,
        llm: SimulatedLLM,
        filter_redundant: bool = False,
    ) -> None:
        self.context = context
        self.llm = llm
        self.filter_redundant = filter_redundant
        self._last_shared: dict[tuple[str, str], str] = {}
        # Per-step payload staging: the sharable payload depends solely on
        # the known-facts snapshot, which is fixed at perceive time, so
        # multi-round dialogue phases would recompute the same sorted
        # selection every round.  Cache it per (step, known-facts identity).
        self._payload_step = -1
        self._payload_source: object = None
        self._payload: tuple[Fact, ...] = ()

    # ------------------------------------------------------------------ #
    # Composition
    # ------------------------------------------------------------------ #

    def sharable_facts(self, known_facts: list[Fact]) -> list[Fact]:
        """Facts worth broadcasting, most recent first."""
        candidates = [
            fact for fact in known_facts if fact.relation in SHARABLE_RELATIONS
        ]
        candidates.sort(key=lambda fact: fact.step, reverse=True)
        return candidates[:MESSAGE_FACT_BUDGET]

    def _payload_for(self, step: int, known_facts: list[Fact]) -> tuple[Fact, ...]:
        """The step's sharable payload, staged once per step.

        A tuple (it becomes the message's ``facts``); the identity check
        on ``known_facts`` makes the cache valid only while the caller
        passes the same per-step snapshot (the dialogue phase hoists it).
        """
        if self._payload_step == step and self._payload_source is known_facts:
            return self._payload
        payload = tuple(self.sharable_facts(known_facts))
        self._payload_step = step
        self._payload_source = known_facts
        self._payload = payload
        return payload

    def _is_redundant(self, payload: tuple[Fact, ...]) -> bool:
        """True when the payload contains nothing the sender hasn't shared.

        Intent refreshes alone do not justify a message — announcing a new
        subgoal every step is precisely the redundant dialogue the paper
        identifies; knowledge transfer is what makes a message useful.
        """
        last_shared = self._last_shared
        for fact in payload:
            if last_shared.get((fact.subject, fact.relation)) != fact.value:
                return False
        return True

    def compose(
        self,
        step: int,
        recipients: tuple[str, ...],
        known_facts: list[Fact],
        intent: Subgoal | None,
        dialogue: list[Message],
        force_filter: bool = False,
    ) -> Message | None:
        """Generate one message via the LLM; None if filtered out.

        ``force_filter`` applies the redundancy gate regardless of the
        module's configuration — used by the planning-then-communication
        strategy (Rec. 8), where the planner only requests a message when
        there is something to say.
        """
        payload = self._payload_for(step, known_facts)
        if (self.filter_redundant or force_filter) and self._is_redundant(payload):
            return None
        prompt = (
            PromptBuilder(COMMUNICATOR_SYSTEM_TEXT)
            .memory(payload)
            .dialogue(dialogue)
            .extra(
                "instruction",
                "Compose a short update for your teammates about what you "
                "found and what you plan to do next.",
            )
            .build()
        )
        self.context.scheduler.submit(
            self.llm,
            InferenceRequest(
                kind="generation",
                purpose="message",
                prompt=prompt,
                module=ModuleName.COMMUNICATION,
                phase="compose",
                agent=self.context.agent,
                step=step,
            ),
        )
        last_shared = self._last_shared
        for fact in payload:
            last_shared[(fact.subject, fact.relation)] = fact.value
        return Message(
            sender=self.context.agent,
            recipients=recipients,
            step=step,
            facts=payload,
            intent=intent,
        )

    # ------------------------------------------------------------------ #
    # Delivery
    # ------------------------------------------------------------------ #

    @staticmethod
    def intent_facts(message: Message) -> list[Fact]:
        """Intent rendered as shareable facts ('box_3 targeted_by agent_1')."""
        if message.intent is None or not message.intent.target:
            return []
        return [
            Fact(
                subject=message.intent.target,
                relation="targeted_by",
                value=message.sender,
                step=message.step,
            )
        ]
