"""Host memory of the FASTER bulk load: a deterministic guard.

``tests/test_call_budget.py`` bounds the load's host work; this bounds
what it allocates, the index step's own share included.  A load holds no value of its own: the pages the log
keeps and the span it defers to the pool region read their records from
the load's source, and its consecutive keys are one index run.  A
mapping's values are held once, by position, as the source of its
pages; a generated source (keys and a ``value_for``) holds none.  The
counts are what :mod:`tracemalloc` traces while the write-path round's
own load runs (after its mapping, if any, is built), so they do not
depend on the host, only on the interpreter.
"""

import tracemalloc

from tests.test_call_budget import write_path_round

#: Peak bytes traced while loading the write-path round's 4 000 records
#: of 512 B (31 per page, 129 full pages, 99 deferred) from a mapping, on
#: 3.11: 109 544, mostly the keys and the values in order, one list of
#: each.  Before the load read its pages from a record source: 131 947
#: (131 747 on 3.12 and 3.13), with the values in one record page per
#: page, and 877 260 before the log kept loaded pages as records and the
#: index kept the keys as a run, mostly the 31 resident pages packed into
#: 16 KiB buffers and a 4 000-key dict.  The 3.11 count plus 10 %.
LOAD_PEAK_BUDGET = 120_500

#: The same load from ``range(4_000)`` and the loader's ``value_for``,
#: which holds no value past its check, on 3.11: 30 773.  The 3.11 count
#: plus 10 %.
SOURCE_LOAD_PEAK_BUDGET = 33_850

#: What the generated-source load may add per full page loaded, from
#: 4 000 to 16 000 records (129 to 516 full pages): 100.1 B on 3.11, the
#: pool region's entry for a deferred page or the log's page object for
#: a resident one.  A single 8 B reference per record would add 248 B
#: per page.
SOURCE_LOAD_BYTES_PER_PAGE = 120


def traced_peak(records=4_000, mapping=True):
    """The peak bytes traced while the write-path round of ``records``
    loads, with its deployment, store and round."""
    peaks = []

    def traced(load):
        tracemalloc.start()
        try:
            load()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    deployment, store, drive = write_path_round(
        records=records, run_load=traced, mapping=mapping,
    )
    return peaks[0], deployment, store, drive


def test_mapping_load_holds_each_record_once():
    peak, deployment, store, drive = traced_peak()
    pool = deployment.pool_region()
    assert store.log.pages_evicted == 99 and len(pool._deferred) == 99
    assert drive() == 600
    # Reads of cold records made them from the source's records; none of
    # the deferred pages was written into the region.
    assert len(pool._deferred) == 99
    deployment.close()
    assert peak <= LOAD_PEAK_BUDGET


def test_source_load_grows_per_page_not_per_record():
    peaks, pages = [], []
    for records in (4_000, 16_000):
        peak, deployment, store, _drive = traced_peak(records, mapping=False)
        assert len(deployment.pool_region()._deferred) == store.log.pages_evicted
        deployment.close()
        peaks.append(peak)
        pages.append(records // 31)
    assert peaks[0] <= SOURCE_LOAD_PEAK_BUDGET
    assert peaks[1] - peaks[0] <= SOURCE_LOAD_BYTES_PER_PAGE * (pages[1] - pages[0])


#: What the index step of that mapping load allocates at its peak, from
#: the start of its full pages, on 3.11: 520 (``insert_pages`` itself
#: takes 352 to 360 B on 3.11 to 3.13).  Before it read the keys in
#: place: 32 404, mostly a list of the 3 999 keys it indexes, 8 B each.
#: Bounded well under that copy, which grows with the load.
INDEX_STEP_BUDGET = 1_000


def test_index_step_reads_the_keys_in_place(monkeypatch):
    from repro.faster.hashindex import HashIndex
    from repro.faster.store import FasterKv

    marks = []
    load_full_pages = FasterKv._load_full_pages
    insert_pages = HashIndex.insert_pages

    def traced_load_full_pages(self, *args):
        marks.append(tracemalloc.get_traced_memory()[0])
        return load_full_pages(self, *args)

    def traced_insert_pages(self, *args):
        tracemalloc.reset_peak()
        insert_pages(self, *args)
        marks.append(tracemalloc.get_traced_memory()[1] - marks.pop())

    monkeypatch.setattr(FasterKv, "_load_full_pages", traced_load_full_pages)
    monkeypatch.setattr(HashIndex, "insert_pages", traced_insert_pages)
    _peak, deployment, store, _drive = traced_peak()
    deployment.close()
    assert store.index._runs == [(0, 3_999, 0, 31, 16_384, 520)]
    (index_step_bytes,) = marks
    assert index_step_bytes <= INDEX_STEP_BUDGET
