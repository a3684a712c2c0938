"""CI fixture: a deliberately un-baselined hot-loop allocation, and a
blocking call inside an asyncio protocol callback.

Fed to the analyzer via ``--extra-source`` by the CI ``analyze`` job (and
``tests/analysis/test_runner.py``) to prove the baseline gate fails on a
fresh finding.  Never imported.
"""

import asyncio
import time

import numpy as np


def hot_loop(batches):
    total = 0.0
    for batch in batches:
        scratch = np.zeros(batch.shape, dtype=np.float32)  # HP001: injected
        np.add(batch, scratch, out=scratch)
        total += float(scratch.sum())
    return total


class StallingReceiver(asyncio.BufferedProtocol):
    def buffer_updated(self, nbytes):
        time.sleep(0.1)  # CL010: injected
