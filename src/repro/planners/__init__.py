"""Low-level planners: A*, RRT, grasping, and cost models."""

from repro.planners.astar import AStarResult, astar, manhattan
from repro.planners.costmodel import ComputeCost, ZERO_COST
from repro.planners.grasp import GraspResult, plan_grasp
from repro.planners.rrt import CircleObstacle, RRTResult, rrt_plan

__all__ = [
    "AStarResult",
    "CircleObstacle",
    "ComputeCost",
    "GraspResult",
    "RRTResult",
    "ZERO_COST",
    "astar",
    "manhattan",
    "plan_grasp",
    "rrt_plan",
]
