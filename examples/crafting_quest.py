"""Crafting quest: watch JARVIS-1 work through the mineworld tech tree.

Runs the memory-augmented single agent on the paper's flagship
long-horizon task ("obtain a diamond pickaxe" on hard difficulty) and
narrates every macro step: what the planner chose, whether the simulated
LLM injected a fault, what execution did, and whether reflection caught a
problem.  A compact way to see the paper's Sec. II pipeline in motion.

Usage::

    python examples/crafting_quest.py [difficulty] [seed]
"""

from __future__ import annotations

import sys

from repro import get_workload
from repro.core.runner import build_loop, build_task
from repro.core.settings import bind


def main() -> None:
    difficulty = sys.argv[1] if len(sys.argv) > 1 else "medium"
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7

    config = get_workload("jarvis-1").config
    task = build_task(config, difficulty=difficulty, seed=seed)
    loop = build_loop(config, task, seed)
    env = loop.env

    print(f"Goal: {env.describe_task()}")
    print(f"Deposits hidden across areas: {', '.join(sorted(env.deposit_area))}\n")

    # Driving steps by hand, so bind the loop's settings as ``run()`` would.
    with bind(loop.settings):
        for step in range(1, task.horizon + 1):
            env.tick()
            loop.step(step)
            records = [r for r in loop.metrics.records if r.step == step]
            for record in records:
                flags = []
                if record.fault is not None:
                    flags.append(f"fault={record.fault.value}")
                if record.reflected:
                    flags.append("reflection-caught")
                if record.replanned:
                    flags.append("replanned")
                status = "ok " if record.execution_success else "FAIL"
                note = f"  [{', '.join(flags)}]" if flags else ""
                subgoal = record.subgoal.describe()
                print(f"step {step:3d}  {status} {subgoal:40s}{note}")
            if env.is_success():
                break

    result = loop.metrics.finalize(
        loop.clock, env.is_success(), step, env.goal_progress()
    )
    player = env._players[env.agents[0]]
    print(f"\ninventory at the end: {dict(sorted(player.inventory.items()))}")
    print(
        f"outcome: success={result.success} steps={result.steps} "
        f"latency={result.sim_minutes:.1f} simulated minutes "
        f"({result.llm_calls} LLM calls)"
    )


if __name__ == "__main__":
    main()
