"""Front-end substrate: branch prediction.

The epoch MLP model needs the front end for one thing: a *mispredicted
branch dependent on a missing load* is a window termination condition, so
we need to know which dynamic branches mispredict.  No fetch buffer is
modelled: the window is bounded by the issue window, ROB and store queue.
"""

from .branch import BranchPredictor, BranchTargetBuffer, GshareTable, ReturnAddressStack

__all__ = [
    "BranchPredictor",
    "BranchTargetBuffer",
    "GshareTable",
    "ReturnAddressStack",
]
