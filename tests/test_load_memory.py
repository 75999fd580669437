"""Host memory of the FASTER bulk load: a deterministic guard.

``tests/test_call_budget.py`` bounds the load's host work; this bounds
what it allocates.  A load from a mapping keeps each record once: the
caller's values, referenced from the record pages the log keeps and the
pages it defers to the pool region, plus one index run for its
consecutive keys.  The count is what :mod:`tracemalloc` traces while
the write-path round's own load runs, after its 4 000-record mapping is
built, so it does not depend on the host, only on the interpreter.
"""

import tracemalloc

from tests.test_call_budget import write_path_round

#: Peak bytes traced while loading the write-path round's 4 000 records
#: of 512 B (31 per page, 129 full pages, 98 deferred), on 3.11: 131 947
#: (131 747 on 3.12 and 3.13).  Before the log kept loaded pages as
#: records and the index kept the keys as a run: 877 260, mostly the 31
#: resident pages packed into 16 KiB buffers and a 4 000-key dict.  The
#: 3.11 count plus 10 %.
LOAD_PEAK_BUDGET = 145_100


def test_mapping_load_holds_each_record_once():
    peaks = []

    def traced(load):
        tracemalloc.start()
        try:
            load()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    deployment, store, drive = write_path_round(run_load=traced)
    pool = deployment.pool_region()
    assert store.log.pages_evicted == 99 and len(pool._deferred) == 98
    assert drive() == 600
    # Reads of cold records packed them from the page's records; none of
    # the deferred pages was written into the region.
    assert len(pool._deferred) == 98
    deployment.close()
    assert peaks[0] <= LOAD_PEAK_BUDGET
