"""Step-batched delivery bus: how messages reach their receivers.

Delivering a :class:`~repro.core.types.Message` means a belief merge and
a dialogue-memory write per receiver.  The bus batches that fan-out per
phase without changing what any reader observes:

- **stage** (at compose time) appends the message to each receiver's
  step dialogue — later composes must still see it in their prompts — and
  charges the modeled ``store_dialogue`` latency on the virtual clock
  right away.  No belief or memory-index work happens yet.
- **flush** (once per phase, before anything reads beliefs again) gives
  each receiver *one* batched belief merge over its concatenated delivery
  stream (:meth:`repro.core.beliefs.Beliefs.update_batch`, in delivery
  order, so per-message novelty — the paper's usefulness metric — is
  counted identically) and *one* batched dialogue-memory commit
  (:meth:`repro.core.modules.memory.MemoryModule.commit_staged_messages`).
  Message-usefulness counters are then recorded per staged message, in
  send order.

Safe deferral rests on a property of the step pipeline: between a
delivery and the end of its phase, the only delivery-derived state anyone
reads is the receiver's step dialogue (compose prompts).  Beliefs are
next read by planning, memory by the next retrieval — both after the
flush points the paradigm loops install.  The memory module's read paths
guard against a forgotten flush.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.modules.communication import CommunicationModule
from repro.core.types import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.agent import EmbodiedAgent, PerceptionBundle
    from repro.core.metrics import MetricsCollector


class DeliveryBus:
    """Collects one step's message deliveries and applies them in batch."""

    def __init__(
        self,
        agents: "list[EmbodiedAgent]",
        agents_by_name: "dict[str, EmbodiedAgent]",
        metrics: "MetricsCollector",
    ) -> None:
        self._agents = agents
        self._by_name = agents_by_name
        self._metrics = metrics
        self._staged: list[Message] = []
        #: Lifetime (message, receiver) pairs staged — an engagement
        #: counter for tests and diagnostics, never read by the pipeline.
        self.staged_deliveries = 0

    @property
    def pending(self) -> int:
        """Messages staged and not yet flushed."""
        return len(self._staged)

    def stage(
        self, message: Message, bundles: "dict[str, PerceptionBundle]"
    ) -> None:
        """Record one message for every recipient, deferring the merges.

        Recipients are charged in ``message.recipients`` order, which
        every loop builds in agent order.
        """
        for name in message.recipients:
            self._by_name[name].stage_message(message, bundles[name])
        self._staged.append(message)
        self.staged_deliveries += len(message.recipients)

    def flush(self, bundles: "dict[str, PerceptionBundle]") -> None:
        """Apply every staged delivery: one batched merge per receiver.

        Per receiver, the staged messages addressed to it are merged in
        delivery order — payload facts then intent facts per message — so
        each payload's novelty is counted against the beliefs its earlier
        deliveries left.  Intent announcements ("I will fetch box_3") are
        merged for conflict avoidance but never count toward novelty: the
        paper's usefulness measure is about task-relevant information
        transfer.  Usefulness is then recorded per message (summed over
        its receivers) in send order.
        """
        staged = self._staged
        if not staged:
            return
        self._staged = []
        intent_chunks = [CommunicationModule.intent_facts(m) for m in staged]
        novel_totals = [0] * len(staged)
        for agent in self._agents:
            name = agent.name
            indices = [
                index
                for index, message in enumerate(staged)
                if name in message.recipients
            ]
            if not indices:
                continue
            chunks: list = []
            for index in indices:
                chunks.append(staged[index].facts)
                chunks.append(intent_chunks[index])
            counts = bundles[name].beliefs.update_batch(chunks)
            for position, index in enumerate(indices):
                # Even positions are payload chunks; intent merges (odd
                # positions) never count toward novelty.
                novel_totals[index] += counts[2 * position]
            if agent.memory is not None:
                agent.memory.commit_staged_messages()
        for novel_total in novel_totals:
            self._metrics.record_message(useful=novel_total > 0)
