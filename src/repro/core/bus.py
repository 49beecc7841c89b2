"""Step-batched delivery bus: how messages reach their receivers.

Delivering a :class:`~repro.core.types.Message` means a belief merge and
a dialogue-memory write per receiver.  The bus batches that fan-out per
phase without changing what any reader observes, and it alone holds a
phase's staged deliveries:

- **stage** (at compose time) walks the message's recipients once: it
  appends the message to each receiver's step dialogue — later composes
  must still see it in their prompts — and counts the receivers with
  memory.  Their modeled ``store_dialogue`` latency is charged right
  away, all k of them in one call on the team's shared clock
  (:meth:`repro.core.modules.memory.MemoryModule.charge_store` with
  ``times=k``), which leaves every float as k single charges would.  No
  belief or memory-index work happens yet.
- **flush** (once per phase, before anything reads beliefs again) splits
  the fan-out into work done once and work done per receiver.  Once per
  flush it builds the :class:`repro.core.beliefs.DeliveryIndex`: the
  message steps and payload tuples as columns, the staged facts grouped
  by belief slot, and each slot's best payload run; one pass over the
  (message, recipient) pairs marks which messages each receiver was
  sent.  Per receiver it then merges its beliefs slot by slot
  (:meth:`repro.core.beliefs.Beliefs.merge_index`, which also flags the
  messages whose payload was novel — the paper's usefulness metric) and
  commits its dialogue memory
  (:meth:`repro.core.modules.memory.MemoryModule.commit_staged_messages`:
  bulk selections from the columns, one order check, one winner lookup
  per slot).  The result equals merging each addressed message in
  delivery order.  Message-usefulness counters are then recorded per
  staged message, in send order.

Safe deferral rests on a property of the step pipeline: between a
delivery and the end of its phase, the only delivery-derived state anyone
reads is the receiver's step dialogue (compose prompts).  Beliefs are
next read by planning, memory by the next retrieval — both after the
flush points the paradigm loops install.
:meth:`repro.core.paradigms.base.ParadigmLoop.run` refuses to end a step
with deliveries still :attr:`~DeliveryBus.pending`, so a forgotten flush
fails at its step boundary, with or without memory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.beliefs import DeliveryIndex
from repro.core.modules.communication import CommunicationModule
from repro.core.types import Fact, Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.agent import EmbodiedAgent, PerceptionBundle
    from repro.core.metrics import MetricsCollector


class DeliveryBus:
    """Collects one step's message deliveries and applies them in batch."""

    def __init__(self, agents: "list[EmbodiedAgent]", metrics: "MetricsCollector") -> None:
        #: Each agent's memory (``None`` without one), in agent order.
        self._memory_of = {agent.name: agent.memory for agent in agents}
        memories = [memory for memory in self._memory_of.values() if memory is not None]
        if len({id(memory.context.clock) for memory in memories}) > 1:
            raise ValueError("a team's memories must share one clock")
        #: The memory that charges every staged receiver's store: all of
        #: them charge the same latency to the same shared clock.
        self._store_charger = memories[0] if memories else None
        self._metrics = metrics
        self._staged: list[Message] = []

    @property
    def pending(self) -> int:
        """Messages staged and not yet flushed."""
        return len(self._staged)

    def stage(
        self, message: Message, bundles: "dict[str, PerceptionBundle]"
    ) -> None:
        """Make one message visible to every recipient, deferring the merges.

        Each recipient's dialogue gets the message.  The k recipients
        with memory are charged their ``store_dialogue`` latency in one
        ``charge_store(..., times=k)`` call, which leaves the shared
        clock exactly as k single charges would.
        """
        memory_of = self._memory_of
        charged = 0
        for name in message.recipients:
            bundles[name].dialogue.append(message)
            if memory_of[name] is not None:
                charged += 1
        if charged:
            self._store_charger.charge_store("store_dialogue", charged)
        self._staged.append(message)

    def flush(self, bundles: "dict[str, PerceptionBundle]") -> None:
        """Apply every staged delivery from one shared index.

        The flush indexes its staged messages once
        (:class:`~repro.core.beliefs.DeliveryIndex`: per-message columns,
        then payload facts and intent facts per slot, in send order).
        Each receiver then merges the messages addressed to it from that
        index, so its host work follows the flush's slots and messages,
        not its fact arrivals: beliefs first
        (:meth:`~repro.core.beliefs.Beliefs.merge_index`), then memory
        (:meth:`~repro.core.modules.memory.MemoryModule.commit_staged_messages`).
        A message is useful when its payload merged a novel fact into some
        receiver's beliefs.  Intent announcements ("I will fetch box_3")
        are merged for conflict avoidance but never count toward novelty:
        the paper's usefulness measure is about task-relevant information
        transfer.  Usefulness is then recorded per message in send order.
        """
        staged = self._staged
        if not staged:
            return
        self._staged = []
        index = DeliveryIndex(staged, self._intent_facts(staged))
        useful = [False] * len(staged)
        # Every receiver's addressed mask, from one pass over the
        # (message, recipient) pairs.
        addressed_by = {name: [False] * len(staged) for name in self._memory_of}
        for position, message in enumerate(staged):
            for name in message.recipients:
                addressed_by[name][position] = True
        for name, memory in self._memory_of.items():
            addressed = addressed_by[name]
            if True not in addressed:
                continue
            bundles[name].beliefs.merge_index(index, addressed, useful)
            if memory is not None:
                memory.commit_staged_messages(index, addressed)
        for flag in useful:
            self._metrics.record_message(useful=flag)

    @staticmethod
    def _intent_facts(staged: list[Message]) -> list[list[Fact]]:
        """Each staged message's intent facts, built once per sender intent.

        A sender's dialogue rounds repeat one ``(sender, target, step)``
        intent, so its messages share one fact object and their arrivals
        collapse into one run of the index.
        """
        built: dict[tuple[str, str, int], list[Fact]] = {}
        chunks = []
        for message in staged:
            intent = message.intent
            key = (message.sender, intent.target if intent is not None else "", message.step)
            facts = built.get(key)
            if facts is None:
                facts = built[key] = CommunicationModule.intent_facts(message)
            chunks.append(facts)
        return chunks
