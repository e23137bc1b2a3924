"""Per-backend exactness contracts, enforced over every *available* backend.

The :class:`~repro.backend.ArrayBackend` contract (see ``backend/base.py``)
has two kernels, both integer, and promises they are **bit-exact** against
the NumPy reference.  This suite parametrizes over
:func:`repro.available_backends`, so on a host with torch installed the same
tests pin that adapter — and on a host without it the optional backend
simply doesn't appear (skip-not-fail).

Hypothesis drives the bit-exactness properties with the same harness the
LUT/matrix equivalence tests use: any counterexample is a contract breach,
not a tolerance issue.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import IQFTSegmenter, available_backends, get_backend
from repro.backend import ArrayBackend, registered_backends, resolve_backend
from repro.backend import registry as backend_registry
from repro.backend.numpy_backend import NumpyBackend
from repro.engine import BatchSegmentationEngine
from repro.errors import ParameterError

# Hypothesis-heavy: CI runs this suite on one matrix leg (see pyproject's
# `property` marker note); the torch backend job runs it unfiltered.
pytestmark = pytest.mark.property

BACKENDS = available_backends()

_tables = hnp.arrays(
    dtype=st.sampled_from([np.int32, np.int64, np.uint8]),
    shape=st.integers(1, 64),
    elements=st.integers(0, 127),
)

_codes = hnp.arrays(
    dtype=st.sampled_from([np.int64, np.uint32]),
    shape=st.integers(1, 256),
    elements=st.integers(0, 5000),
)


@pytest.fixture(params=BACKENDS, ids=BACKENDS)
def backend(request):
    return get_backend(request.param)


# --------------------------------------------------------------------- #
# integer kernels: bit-exact
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", BACKENDS)
@given(table=_tables, data=st.data())
@settings(max_examples=40, deadline=None)
def test_gather_is_bit_identical_to_numpy_fancy_indexing(name, table, data):
    backend = get_backend(name)
    indices = data.draw(
        hnp.arrays(
            dtype=np.int64,
            shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
            elements=st.integers(0, len(table) - 1),
        )
    )
    out = backend.gather(table, indices)
    expected = table[indices]
    assert out.dtype == expected.dtype
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("name", BACKENDS)
@given(codes=_codes)
@settings(max_examples=40, deadline=None)
def test_unique_inverse_matches_numpy_unique(name, codes):
    backend = get_backend(name)
    unique, inverse = backend.unique_inverse(codes)
    ref_unique, ref_inverse = np.unique(codes, return_inverse=True)
    assert np.array_equal(unique, ref_unique)
    assert np.array_equal(np.asarray(inverse).ravel(), ref_inverse.ravel())
    # the round-trip promise: unique[inverse] rebuilds the codes exactly
    assert np.array_equal(np.asarray(unique)[np.asarray(inverse).ravel()], codes.ravel())


def test_gather_handles_2d_probability_tables(backend):
    table = np.arange(24, dtype=np.float64).reshape(8, 3)
    indices = np.array([[0, 7], [3, 3]])
    out = backend.gather(table, indices)
    assert out.shape == (2, 2, 3)
    assert np.array_equal(out, table[indices])


# --------------------------------------------------------------------- #
# the contract itself: two integer kernels, no float kernel
# --------------------------------------------------------------------- #
def test_the_backend_contract_is_two_integer_kernels():
    assert ArrayBackend.__abstractmethods__ == {"gather", "unique_inverse", "is_available"}
    assert "cupy" not in registered_backends()
    with pytest.raises(TypeError):
        BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi), float_compute="backend")


# --------------------------------------------------------------------- #
# engine-level parity: labels identical across backends
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", BACKENDS)
def test_engine_labels_are_bit_identical_across_backends(name, rng):
    image = (rng.random((40, 48, 3)) * 255).astype(np.uint8)
    reference = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi), backend="numpy")
    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi), backend=name)
    ref_result = reference.segment(image)
    result = engine.segment(image)
    assert result.extras["backend"] == name
    assert np.array_equal(result.labels, ref_result.labels)
    assert result.num_segments == ref_result.num_segments


def test_engine_reports_backend_in_describe(backend):
    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi), backend=backend)
    described = engine.describe()
    assert described["backend"] == backend.name


# --------------------------------------------------------------------- #
# digest invariance: warm caches survive a backend switch
# --------------------------------------------------------------------- #
def test_config_digest_is_backend_invariant_for_exact_float_compute():
    from repro.serve._cache import engine_fingerprint

    fingerprints = {
        name: engine_fingerprint(
            BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi), backend=name)
        )
        for name in BACKENDS
    }
    baseline = fingerprints["numpy"]
    for name, fingerprint in fingerprints.items():
        assert fingerprint == baseline, f"digest differs for backend {name!r}"
    assert "backend" not in baseline
    assert "float_backend" not in baseline


# --------------------------------------------------------------------- #
# registry behaviour
# --------------------------------------------------------------------- #
def test_numpy_backend_is_always_available():
    assert "numpy" in BACKENDS
    assert set(BACKENDS) <= set(registered_backends())


def test_unknown_backend_raises_parameter_error_listing_names():
    with pytest.raises(ParameterError) as excinfo:
        get_backend("definitely-not-a-backend")
    message = str(excinfo.value)
    for name in registered_backends():
        assert name in message


def test_registered_but_unavailable_backend_raises_with_alternatives(monkeypatch):
    # A backend of its own that never probes available, so the test runs on
    # every host, including one where every built-in backend is installed.
    monkeypatch.setitem(backend_registry._factories, "never-available", NumpyBackend)
    monkeypatch.setitem(backend_registry._probes, "never-available", lambda: False)
    assert "never-available" in registered_backends()
    assert "never-available" not in available_backends()
    with pytest.raises(ParameterError, match="not available") as excinfo:
        get_backend("never-available")
    for name in available_backends():
        assert name in str(excinfo.value)


def test_resolve_backend_coercions():
    assert resolve_backend("numpy").name == "numpy"
    instance = get_backend("numpy")
    assert resolve_backend(instance) is instance
    assert isinstance(resolve_backend(None), ArrayBackend)
    with pytest.raises(ParameterError, match="backend must be"):
        resolve_backend(123)


def test_cost_hints_have_the_documented_keys(backend):
    hints = backend.cost_hints()
    assert set(hints) >= {"gather_min_pixels", "tile_pixels_scale"}
    assert all(float(v) >= 0 for v in hints.values())
