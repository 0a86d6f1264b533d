"""Wall-clock stage timing for the experiment harness (Exp-3 decomposition)."""
from __future__ import annotations

import time
from contextlib import contextmanager


class StageTimer:
    """Accumulates wall-clock seconds per named stage.

    Stage names follow the paper's Exp-3 decomposition: ``build_index``,
    ``cluster_query``, ``identify_subquery``, ``enumeration``.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + (
                time.perf_counter() - t0
            )
