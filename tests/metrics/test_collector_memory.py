"""Memory bound of the outcome table (``docs/PERFORMANCE.md``, "Memory per
expected pair")."""

import gc
import tracemalloc

from repro.metrics.collector import MetricsCollector

MESSAGES = 50_000
DEADLINES = {3: 0.1, 7: 0.2, 11: 0.15, 19: 0.3}


def test_table_retains_at_most_64_bytes_per_expected_pair():
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        collector = MetricsCollector()
        for msg_id in range(1, MESSAGES + 1):
            collector.expect(msg_id, 0, msg_id * 0.01, DEADLINES)
        for msg_id in range(1, MESSAGES + 1):
            for hop, subscriber in enumerate(DEADLINES):
                collector.record_delivery(msg_id, subscriber, msg_id * 0.01 + 0.05, hop)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
        pairs = collector.expected_deliveries
        assert pairs == MESSAGES * len(DEADLINES)
        assert collector.delivered_count() == pairs
        assert retained / pairs <= 64, f"{retained / pairs:.1f} B per pair"

        # Iterating the rows holds one snapshot at a time.
        rows = collector.outcomes()
        assert not isinstance(rows, list)
        gc.collect()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        delivered = sum(1 for o in rows if o.delivered)
        peak = tracemalloc.get_traced_memory()[1] - base
        assert delivered == pairs
        assert peak < 16 * 1024, f"iteration peaked at {peak} B over {pairs} rows"
    finally:
        tracemalloc.stop()
