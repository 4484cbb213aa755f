"""Golden ``montecarlo`` metrics, bit for bit.

The shared-demand sweep tallies every ``CHUNK_ROWS`` replications, and a
lone request on this sparse model is its one-point sweep at scale 1.  These
pins hold every metric of a two-point sweep, written as ``float.hex``
literals, at the default replication count and at exactly one chunk
(65,536), for 1-out-of-2 and 1-out-of-3 systems; the lone request must
equal the ``p_scale`` 1.0 row.  A change that moves any bit of a record
below the chunk size fails here.
"""

from __future__ import annotations

import pytest

from repro.api import evaluate, evaluate_sweep
from repro.core.fault_model import FaultModel

#: The model of the golden digest pins in ``tests/test_digest_stability.py``.
MODEL = FaultModel.from_dict(
    {
        "p": [0.05, 0.02, 0.01],
        "q": [1e-4, 5e-4, 2e-3],
        "names": ["alpha", "beta", "gamma"],
    }
)
SEED = 11
SWEEP = [{"p_scale": 0.5}, {"p_scale": 1.0}]

#: ``(versions, replications, sweep point)`` -> metrics besides
#: ``mc_replications`` and ``mc_correlation``, in ``float.hex`` form.
GOLDEN = {
    (2, 10_000, 0): {
        "mc_mean_ratio": "0x1.165e7254813e2p-8",
        "mc_mean_single": "0x1.147d0fa0310d7p-16",
        "mc_mean_single_se": "0x1.79cd5c6723641p-20",
        "mc_mean_system": "0x1.2ca5d05ea7ab3p-24",
        "mc_mean_system_se": "0x1.c66674c2197dcp-26",
        "mc_risk_ratio": "0x1.1f7047dc11f70p-6",
        "mc_std_ratio": "0x1.33e72fddcd225p-6",
        "mc_std_single": "0x1.2728703093a63p-13",
        "mc_std_system": "0x1.63000b37a3ea4p-19",
    },
    (2, 10_000, 1): {
        "mc_mean_ratio": "0x1.dedd42ce4be41p-7",
        "mc_mean_single": "0x1.194520708ddcbp-15",
        "mc_mean_single_se": "0x1.1079892d8c9ddp-19",
        "mc_mean_system": "0x1.07111652d2b5cp-21",
        "mc_mean_system_se": "0x1.05ef832d842e4p-23",
        "mc_risk_ratio": "0x1.2d7b73a7a26fcp-5",
        "mc_std_ratio": "0x1.ec323769c8067p-5",
        "mc_std_single": "0x1.a9bde6572bb69p-13",
        "mc_std_system": "0x1.99463cf71e885p-17",
    },
    (2, 65_536, 0): {
        "mc_mean_ratio": "0x1.b967276935cdfp-7",
        "mc_mean_single": "0x1.31f8a0902de01p-16",
        "mc_mean_single_se": "0x1.476b21beac886p-21",
        "mc_mean_system": "0x1.07c84b5dcc63fp-22",
        "mc_mean_system_se": "0x1.192a9bc4b78bcp-24",
        "mc_risk_ratio": "0x1.519e0f210b8bcp-6",
        "mc_std_ratio": "0x1.b7ac67bf4f720p-4",
        "mc_std_single": "0x1.476b21beac886p-13",
        "mc_std_system": "0x1.192a9bc4b78bcp-16",
    },
    (2, 65_536, 1): {
        "mc_mean_ratio": "0x1.0c0500ecb14d5p-6",
        "mc_mean_single": "0x1.2d3f7ced91687p-15",
        "mc_mean_single_se": "0x1.c5870e8cfcc83p-21",
        "mc_mean_system": "0x1.3b645a1cac084p-21",
        "mc_mean_system_se": "0x1.5af4c25921db0p-24",
        "mc_risk_ratio": "0x1.298ab91058c86p-5",
        "mc_std_ratio": "0x1.87b03f920521cp-4",
        "mc_std_single": "0x1.c5870e8cfcc83p-13",
        "mc_std_system": "0x1.5af4c25921db0p-16",
    },
    (3, 10_000, 0): {
        "mc_mean_system": "0x0.0p+0",
        "mc_mean_system_se": "0x0.0p+0",
        "mc_prob_any_fault": "0x0.0p+0",
        "mc_prob_pfd_zero": "0x1.0000000000000p+0",
        "mc_std_system": "0x0.0p+0",
    },
    (3, 10_000, 1): {
        "mc_mean_system": "0x0.0p+0",
        "mc_mean_system_se": "0x0.0p+0",
        "mc_prob_any_fault": "0x0.0p+0",
        "mc_prob_pfd_zero": "0x1.0000000000000p+0",
        "mc_std_system": "0x0.0p+0",
    },
    (3, 65_536, 0): {
        "mc_mean_system": "0x1.0624dd2f1a9fcp-27",
        "mc_mean_system_se": "0x1.0624dd2f1a9fcp-27",
        "mc_prob_any_fault": "0x1.0000000000000p-16",
        "mc_prob_pfd_zero": "0x1.fffe000000000p-1",
        "mc_std_system": "0x1.0624dd2f1a9fcp-19",
    },
    (3, 65_536, 1): {
        "mc_mean_system": "0x1.d7dbf487fcb93p-27",
        "mc_mean_system_se": "0x1.1a55783f89f55p-27",
        "mc_prob_any_fault": "0x1.4000000000000p-14",
        "mc_prob_pfd_zero": "0x1.fff6000000000p-1",
        "mc_std_system": "0x1.1a55783f89f55p-19",
    },
}


def _assert_pinned(result, key):
    replications = key[1]
    expected = {"mc_correlation": (0.0).hex(), "mc_replications": replications, **GOLDEN[key]}
    actual = {
        name: value.hex() if isinstance(value, float) else value
        for name, value in result.metrics
    }
    assert actual == expected


@pytest.mark.parametrize("replications", [10_000, 65_536])
@pytest.mark.parametrize("versions", [2, 3])
def test_scalar_record(versions, replications):
    """A lone request equals the ``p_scale`` 1.0 point of the sweep."""
    result = evaluate(MODEL, "montecarlo", seed=SEED, versions=versions, replications=replications)
    _assert_pinned(result, (versions, replications, SWEEP.index({"p_scale": 1.0})))


@pytest.mark.parametrize("replications", [10_000, 65_536])
@pytest.mark.parametrize("versions", [2, 3])
def test_sweep_records(versions, replications):
    results = evaluate_sweep(
        MODEL, "montecarlo", SWEEP, seed=SEED, versions=versions, replications=replications
    )
    assert len(results) == len(SWEEP)
    for index, result in enumerate(results):
        _assert_pinned(result, (versions, replications, index))
