"""Per-row reference rules for a flow's SYN and ACK packet counts, which
FlowBatch.syn_packets and ack_packets compute column-wise."""

from edgeids.gateway_env import FLAG_ACK, FLAG_SYN


def syn_packets(flow):
    """SYN-only flood flows count every packet; a normal handshake one."""
    if flow.protocol != "tcp" or not flow.flags & FLAG_SYN:
        return 0
    if not flow.flags & FLAG_ACK:
        return flow.pkts_total
    return 1 if flow.pkts_total > 0 else 0


def ack_packets(flow):
    """The ACK-flagged tcp packets, the handshake SYN aside."""
    if flow.protocol != "tcp" or not flow.flags & FLAG_ACK:
        return 0
    return max(flow.pkts_total - (1 if flow.flags & FLAG_SYN else 0), 0)
