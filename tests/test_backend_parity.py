"""Per-backend exactness contracts, enforced over every *available* backend.

The :class:`~repro.backend.ArrayBackend` contract (see ``backend/base.py``)
promises that integer kernels are **bit-exact** against the NumPy reference
and float kernels match within each backend's documented tolerances.  This
suite parametrizes over :func:`repro.available_backends`, so on a host with
torch or CuPy installed the same tests pin those adapters — and on a host
without them the optional backends simply don't appear (skip-not-fail).

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
# float kernel: within documented tolerances
# --------------------------------------------------------------------- #
def test_phase_amplitudes_within_documented_tolerances(backend, rng):
    n = 3
    basis = 1 << n
    phases = rng.random((97, n)) * 4 * np.pi
    bits = ((np.arange(basis)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)
    matrix = rng.random((basis, basis)) + 1j * rng.random((basis, basis))
    matrix = matrix + matrix.T  # the IQFT classification matrix is symmetric

    reference = NumpyBackend().phase_amplitudes(phases, bits, matrix)
    out = backend.phase_amplitudes(phases, bits, matrix)
    assert isinstance(out, np.ndarray)
    assert out.shape == reference.shape
    if backend.bit_exact_float:
        assert np.array_equal(out, reference)
    else:
        np.testing.assert_allclose(
            out, reference, rtol=backend.float_rtol, atol=backend.float_atol
        )


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
    assert described["float_compute"] == "exact"
    assert engine.backend_invariant  # exact float compute → results invariant


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


def test_config_digest_splits_for_non_bit_exact_float_backends():
    from repro.serve._cache import engine_fingerprint

    class _ApproxBackend(NumpyBackend):
        name = "approx-test"
        bit_exact_float = False
        float_rtol = 1e-6
        float_atol = 1e-9

    exact = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi), backend="numpy")
    approx = BatchSegmentationEngine(
        IQFTSegmenter(thetas=np.pi), backend=_ApproxBackend(), float_compute="backend"
    )
    assert not approx.backend_invariant
    exact_fp = engine_fingerprint(exact)
    approx_fp = engine_fingerprint(approx)
    assert approx_fp["float_backend"] == "approx-test"
    assert exact_fp != approx_fp


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


def test_registered_but_unavailable_backend_raises_with_alternatives():
    unavailable = sorted(set(registered_backends()) - set(BACKENDS))
    if not unavailable:
        pytest.skip("every registered backend is available on this host")
    with pytest.raises(ParameterError, match="not available"):
        get_backend(unavailable[0])


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
