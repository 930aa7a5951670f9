"""Checkpoint-based node failover.

A dead node is replaced by a *spare*: a freshly built machine of the
same shape, rewound to the node's last wire checkpoint
(:meth:`MachineCheckpoint.to_bytes` image), fast-forwarded past the
downtime, and re-attached to the network fabric in the dead node's
place.

Rewinding is what makes failover *correct* rather than merely live: the
kernel's request cursor (``_next_request``), open-loop arrival schedule
and response table are all part of the checkpoint, so the spare
re-serves every request the dead node accepted after the capture — the
fleet converges to the same served-request set an uninterrupted run
produces.
"""

from repro.checkpoint import MachineCheckpoint


class FailoverEvent:
    """Record of one node replacement."""

    def __init__(self, node, reason, death_cycle, checkpoint_cycle,
                 resume_cycle, rewound_requests):
        self.node = node
        self.reason = reason              # "fault" | "check_error" |
                                          # "killed" | "watchdog" | ...
        self.death_cycle = death_cycle
        self.checkpoint_cycle = checkpoint_cycle
        self.resume_cycle = resume_cycle
        self.rewound_requests = rewound_requests

    def to_dict(self):
        return {"node": self.node, "reason": self.reason,
                "death_cycle": self.death_cycle,
                "checkpoint_cycle": self.checkpoint_cycle,
                "resume_cycle": self.resume_cycle,
                "rewound_requests": self.rewound_requests}


def take_checkpoint(node):
    """Capture *node*'s machine as its latest wire image."""
    checkpoint = node.machine.checkpoint()
    node.checkpoint_bytes = checkpoint.to_bytes()
    node.checkpoint_cycle = checkpoint.cycle


def fail_over(node, device, death_cycle, restore_cost, reason):
    """Replace *node*'s machine with a restored spare.

    Returns the :class:`FailoverEvent`, or None when the node has no
    checkpoint image to restore from (it is then lost for good and
    marked down on the fabric).
    """
    if node.checkpoint_bytes is None:
        device.mark_down(node.node_id)
        node.status = "lost"
        return None
    served_at_death = node.machine.kernel._next_request
    spare = node.factory()
    checkpoint = MachineCheckpoint.from_bytes(node.checkpoint_bytes)
    spare.restore(checkpoint)
    # Fast-forward past the downtime: detection + spare bring-up.  The
    # spare joins the fleet "now", never in the past — its clock must
    # not run behind cycles the rest of the fleet already simulated.
    resume_cycle = max(death_cycle, spare.cycle) + restore_cost
    if resume_cycle > spare.cycle:
        spare.pipeline.advance_cycles(resume_cycle - spare.cycle)
    node.machine = spare
    device.attach(node.node_id, spare.kernel)
    event = FailoverEvent(
        node.node_id, reason, death_cycle, checkpoint.cycle, resume_cycle,
        rewound_requests=served_at_death - spare.kernel._next_request)
    node.failovers.append(event)
    return event
