"""The one observable that depends on the exec path: an aborted window's time.

The ``serve-bench`` workload under two dead channels (2, 3), bit flips at
1e-4 (fault seed 7) and no scrubbing serves GEMVs on the device over
flipped cells, and one of its kernels meets an uncorrectable word inside
an AB-PIM window.
The fused executor aborts that window whole, at its flush, before any of
its register or bank writes lands; the execution units
(``exec_mode="scalar"``) abort at the trigger that met the word.  Both
post-error states are discarded (the channel is reset) and the request is
retried, so results, outcomes, retries, fallbacks and inline corrections
agree.  The retried request's simulated time does not: the makespans are
pinned here, 72.6 us fused against 72.4 us on the units.
"""

import numpy as np

from repro.__main__ import _poisson_stream, _serving_setup
from repro.faults import FaultConfig
from repro.stack import PimServer, PimSystem
from repro.stack.arithmetic import golden_reference


def _serve(**knobs):
    """24 requests of the ``serve-bench`` stream under the faults above."""
    config, server_config, rng, w = _serving_setup(7, **knobs)
    config = config.replace(
        ecc=True,
        faults=FaultConfig(
            bit_flip_rate=1e-4,
            check_flip_rate=1e-4,
            register_fault_rate=0.05,
            failed_channels=(2, 3),
            seed=7,
        ),
    )
    system = PimSystem(config)
    with PimServer(system, server_config.replace(scrub_interval=0)) as server:
        handles = [server.submit(r) for r in _poisson_stream(rng, w, 24, 2000.0)]
        profile = server.run()
    for handle in handles:
        assert np.array_equal(handle.result, golden_reference(handle, 4))
    return handles, profile


def test_only_the_aborted_window_time_depends_on_the_exec_path():
    fused, fused_profile = _serve()
    units, units_profile = _serve(exec_mode="scalar")
    assert [h.outcome for h in fused] == [h.outcome for h in units]
    assert [h.result.tobytes() for h in fused] == [h.result.tobytes() for h in units]
    for profile in (fused_profile, units_profile):
        assert (profile.retries, profile.fallbacks, profile.ecc_corrected) == (3, 12, 81)
    # The exception, stated once (docs/ARCHITECTURE.md, "Fused execution").
    assert round(fused_profile.makespan_ns / 1000, 1) == 72.6
    assert round(units_profile.makespan_ns / 1000, 1) == 72.4
