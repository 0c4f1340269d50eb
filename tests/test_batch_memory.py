"""Property tests for the copy-on-write paged lane memory.

:class:`repro.batch.memory.LanePagedMemory` promises that every lane's
*view* is indistinguishable from the dense per-lane RAM copy it
replaced (PR 6's layout), while only divergent pages cost memory.  The
oracle here is exactly that dense layout: one private ``bytearray``
image per lane, every store applied directly.  Hypothesis drives
random interleavings of store instants (reference and fault lanes
mixed, aligned sizes 1/2/4) against a small page size so page
boundaries, privatization and the shared-overlay protocol all get
exercised; reads, composed images and digests must match the oracle
bit for bit at every step.

The engine-facing guarantees pinned here:

* ``read``/``read_byte``/``view_bytes`` equal the dense view
  after arbitrary write interleavings;
* ``compose``/``crc`` round-trip the exact dense image (digest
  soundness: page-granular dirty tracking bounds storage, never what
  the digest observes);
* ``release`` frees a retired lane's private pages and never perturbs
  surviving lanes' views.
"""

import zlib

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.batch.memory import LanePagedMemory  # noqa: E402

WIDTH = 4          # 3 fault lanes + reference
REF = WIDTH - 1
PAGE = 64          # small pages: plenty of boundary traffic
MEM = 1024


@st.composite
def store_instant(draw):
    """One write() call: unique writers, per-writer aligned stores."""
    size = draw(st.sampled_from((1, 2, 4)))
    writers = draw(st.lists(st.integers(0, WIDTH - 1), min_size=1,
                            max_size=WIDTH, unique=True))
    addrs = [draw(st.integers(0, MEM // size - 1)) * size
             for _ in writers]
    values = [draw(st.integers(0, (1 << (8 * size)) - 1))
              for _ in writers]
    return size, writers, addrs, values


@st.composite
def workload(draw):
    base = draw(st.binary(min_size=MEM, max_size=MEM))
    instants = draw(st.lists(store_instant(), min_size=1, max_size=40))
    return base, instants


class DenseOracle:
    """The replaced layout: one full private image per lane."""

    def __init__(self, base, width):
        self.images = [bytearray(base) for _ in range(width)]

    def apply(self, size, writers, addrs, values):
        for k, addr, value in zip(writers, addrs, values):
            self.images[k][addr:addr + size] = value.to_bytes(
                size, "little")

    def read(self, k, addr, size):
        return int.from_bytes(self.images[k][addr:addr + size], "little")


def run_both(base, instants):
    store = LanePagedMemory(base, WIDTH, REF, page_size=PAGE)
    oracle = DenseOracle(base, WIDTH)
    for size, writers, addrs, values in instants:
        store.write(writers, addrs, size, values)
        oracle.apply(size, writers, addrs, values)
    return store, oracle


@settings(max_examples=60, deadline=None)
@given(workload())
def test_reads_match_dense_oracle(wl):
    """Every read primitive sees exactly the dense per-lane image."""
    base, instants = wl
    store, oracle = run_both(base, instants)
    bytes_probes = {a for _, _, addrs, _ in instants for a in addrs}
    bytes_probes.update({0, PAGE - 4, PAGE, MEM - 4})
    # Word probes must respect the store's alignment contract (aligned
    # accesses never straddle a page).
    probes = {a & ~3 for a in bytes_probes}
    for k in range(WIDTH):
        for addr in bytes_probes:
            assert store.read_byte(k, addr) == oracle.images[k][addr]
        for addr in probes:
            assert store.read(k, addr, 4) == oracle.read(k, addr, 4)
            assert (store.view_bytes(k, addr, 4)
                    == bytes(oracle.images[k][addr:addr + 4]))


@settings(max_examples=60, deadline=None)
@given(workload())
def test_compose_and_crc_round_trip(wl):
    """compose(k) rebuilds the exact dense image; crc(k) digests it.
    Composition is read-only: repeating it changes nothing, and it
    never allocates."""
    base, instants = wl
    store, oracle = run_both(base, instants)
    allocated = store.allocated_bytes
    for k in range(WIDTH):
        image = store.compose(k)
        assert image == bytes(oracle.images[k])
        assert store.compose(k) == image
        assert store.crc(k) == zlib.crc32(image) & 0xFFFFFFFF
    assert store.allocated_bytes == allocated
    assert store.peak_bytes >= allocated


@settings(max_examples=60, deadline=None)
@given(workload(), st.integers(0, WIDTH - 2))
def test_release_frees_private_pages_only(wl, victim):
    """Retiring a lane returns exactly its private page bytes and
    leaves every surviving lane's view untouched."""
    base, instants = wl
    store, oracle = run_both(base, instants)
    private = sum(p.size for p in store.lane_pages[victim].values())
    before = store.allocated_bytes
    store.release(victim)
    assert store.allocated_bytes == before - private
    assert not store.lane_pages[victim]
    assert victim not in store.live
    for k in range(WIDTH):
        if k != victim:
            assert store.compose(k) == bytes(oracle.images[k])


@settings(max_examples=40, deadline=None)
@given(workload())
def test_divergence_bounds_allocation(wl):
    """Memory is bounded by divergence, not footprint: allocation never
    exceeds the dense layout and is zero when nothing ever diverges
    from the base image."""
    base, instants = wl
    store, _ = run_both(base, instants)
    assert store.peak_bytes <= WIDTH * MEM
    pristine = LanePagedMemory(base, WIDTH, REF, page_size=PAGE)
    for k in range(WIDTH):
        pristine.read(k, 0, 4)
        pristine.compose(k)
    assert pristine.allocated_bytes == 0
