"""Recorded values of the one-body flows at the default config.

The Hartree orbital and the Bogoliubov pair feed every record the lab
writes, and no oracle pins them to round-off.  These values were recorded
with the FFT-based split steps that preceded the grid-space matrix steps;
each tolerance is ten times the round-off change that switch made (the
pair runs with snapshots at 0.25, 0.5 and 1.0, as in the ``pair_run``
fixture, because a snapshot splits a kinetic step in two).
"""

import pytest

from meanfieldlab import bogoliubov as bg
from meanfieldlab import hartree as ha

# t: {quantity: (recorded value, absolute tolerance)}
RECORDED = {
    0.5: {
        "mass": (1.000000000000023, 6.9e-13),
        "energy": (0.39433927802748575, 2.3e-13),
        "depletion": (0.025210275929368114, 1.7e-14),
        "identity_defect": (1.3330777879348709e-08, 2.9e-14),
        "symmetry_defect": (2.3217875476908717e-09, 1.4e-14),
    },
    1.0: {
        "mass": (1.0000000000000542, 1.5e-12),
        "energy": (0.3943392809323043, 5.6e-13),
        "depletion": (0.08272628745779952, 1.1e-13),
        "identity_defect": (3.271815522139692e-08, 3.2e-13),
        "symmetry_defect": (4.344608765416976e-09, 2.7e-14),
    },
}


@pytest.mark.parametrize("t", sorted(RECORDED))
def test_one_body_flows_keep_their_recorded_values(t, main_grid, potential_samples, trajectory, pair_run):
    phi = trajectory.state_at(t)
    pair = pair_run[1][t]
    identity_defect, symmetry_defect = bg.symplectic_defect(pair)
    got = {
        "mass": ha.mass(phi, main_grid),
        "energy": ha.hartree_energy(phi, potential_samples, main_grid),
        "depletion": bg.depletion(pair),
        "identity_defect": identity_defect,
        "symmetry_defect": symmetry_defect,
    }
    for name, (want, tol) in RECORDED[t].items():
        assert got[name] == pytest.approx(want, rel=0, abs=tol), name
