"""Publish/subscribe layer: frames, topics, workload, brokers, publishers."""

from repro.pubsub.broker import BrokerRuntime
from repro.pubsub.endpoints import PublisherProcess
from repro.pubsub.messages import AckFrame, PacketFrame
from repro.pubsub.topics import Subscription, TopicSpec, Workload, generate_workload

__all__ = [
    "AckFrame",
    "BrokerRuntime",
    "PacketFrame",
    "PublisherProcess",
    "Subscription",
    "TopicSpec",
    "Workload",
    "generate_workload",
]
