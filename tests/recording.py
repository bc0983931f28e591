"""What a test reads of a node's deliveries: the records its
``on_delivery`` callback was handed.  A node keeps none itself; its
exact totals are ``endpoint.stats.sent + endpoint.stats.delivered``."""


class Deliveries(list):
    """Every :class:`~repro.core.protocol.DeliveryRecord` one node
    delivered, in order (own broadcasts included).  Pass ``log.append``
    as the node's ``on_delivery``."""

    def payloads(self, include_local=True):
        return [
            record.message.payload
            for record in self
            if include_local or not record.local
        ]


def exact_deliveries(node):
    """Every record ``node`` delivered, own broadcasts included."""
    return node.endpoint.stats.sent + node.endpoint.stats.delivered
