"""`Spectrum` base columns against the eager assembly of every column.

A `Spectrum` keeps the checked base columns of its route and the sorted slot
of each and of its sign flips (``Spectrum.slots``).  ``Spectrum.eigenvectors``
writes every column on first read; the skin census, `profile_matrix` and the
disorder `mean_profile` read the base columns alone.  `_eager_pairs` gathers
every column at once from the base columns and their flips, by the order of
the route's one sort, and the eager census functions below read all of those
columns.  On every route the lazy forms must equal them bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from bkchain import spectral
from bkchain.cli import main
from bkchain.disorder import DisorderSpec, ensemble_observables, sample_site_fields
from bkchain.model import BKCParams, BoundaryCondition, ModBKCParams, SiteFields
from bkchain.skin import edge_weight, nhse_fraction, profile_matrix, profile_rows, spatial_profile
from bkchain.spectral import solve

OBC, PBC = BoundaryCondition.OBC, BoundaryCondition.PBC


def _eager_pairs(base, order):
    """Every column in sorted order: the base columns and their chiral flips, laid out [Sigma][Gamma][column].

    ``order`` sorted the route's values in that layout; without Gamma-flips it is [Sigma][column].
    """
    rows = np.arange(len(base))[:, None]
    p_row, b_row = rows % 2 == 1, rows // 2 % 2 == 1  # B_j is site 2j + 1: rows 4j + 2, 4j + 3
    gammas = (False, True)[:len(order) // base.shape[1] // 2]
    full = np.hstack([np.where((s & p_row) ^ (g & b_row), -base, base) for s in (False, True) for g in gammas])
    return np.asfortranarray(full[:, order])


def _eager_nhse_fraction(V, n_cells, frac, threshold):
    return float((edge_weight(spatial_profile(V, n_cells), frac) > threshold).mean())


def _eager_profile_matrix(V, n_cells):
    return spatial_profile(V, n_cells).prob.T


def _split(n):
    """fig5's chain at J2 = 2.2 nearly cut at its middle intercell bond: the reduced route's guarded fallback."""
    f = SiteFields.uniform(ModBKCParams(J1=0.0, J2=2.2, Delta1=1.0, Delta2=1.5, omega=0.0, N=n))
    J2 = f.J2.copy()
    J2[n // 2 - 1] = f.Delta2[n // 2 - 1] * (1 - 1e-6)
    return replace(f, J2=J2)


_SCAN = ModBKCParams(J1=0.0, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100)
_SWEEP = ModBKCParams(J1=1.4, J2=1.2, Delta1=1.0, Delta2=1.0, omega=0.3, N=30)
_FIG9 = ModBKCParams(J1=2.2, J2=1.0, Delta1=2.1, Delta2=1.5, omega=0.05, N=30)
_FIG8 = ModBKCParams(J1=1.0, J2=1.2, Delta1=1.5, Delta2=2.1, omega=0.0, N=30)
_W = {"J1": 0.1, "J2": 0.1, "Delta1": 0.1, "Delta2": 0.1}

# (params, bc, source prefix, base columns per 4N, or None where the base holds every column)
ROUTES = {
    "similarity": (BKCParams(J0=0.5, Delta0=1.0, omega=0.0, N=30), OBC, "similarity[", None),
    "reduced_all_real": (replace(_SCAN, J1=0.0, J2=0.5), OBC, "reduced[modbkc,obc,n=100]", 1),
    "reduced_half_size": (replace(_SCAN, J1=2.0), OBC, "reduced[modbkc,obc,n=100]", 1),
    "reduced_deflated": (replace(_SCAN, J1=1.4), OBC, "reduced[modbkc,obc,n=100] (deflated edge pair, closed", 1),
    "reduced_deflated_solved": (replace(_SCAN, J1=1.7), OBC,
                                "reduced[modbkc,obc,n=100] (deflated edge pair, solved vectors", 1),
    "reduced_guarded": (_split(100), OBC, "reduced[modbkc,obc,n=100] (half-size guard", 2),
    "reduced_fields": (sample_site_fields(_FIG8, DisorderSpec(_W, seed=3), 0), OBC, "reduced[", 1),
    "bloch_modbkc": (_SWEEP, PBC, "bloch[", None),
    "bloch_bkc": (BKCParams(J0=0.5, Delta0=1.0, omega=0.5, N=30), PBC, "bloch[", None),
    "xp_mirror_halves": (_SWEEP, OBC, "xp[symplectic,obc,n=30] (mirror halves", 2),
    "xp_fields": (sample_site_fields(_FIG9, DisorderSpec({"omega": 2.0}, seed=20240601), 0), OBC,
                  "xp[symplectic,obc,n=30]", 2),
    "xp_ring_fields": (sample_site_fields(_FIG9, DisorderSpec({"omega": 2.0}, seed=5), 1), PBC, "xp[", 2),
    "eig": (BKCParams(J0=0.5, Delta0=1.0, omega=0.5, N=30), OBC, "eig[", None),
}


def _solve_recording(p, bc, monkeypatch):
    """solve(p, bc) and the ``order`` of every sort (`spectral._order`) it made."""
    orders = []

    def recording(vals):
        out = real(vals)
        orders.append(out[1].copy())
        return out

    real = spectral._order
    monkeypatch.setattr(spectral, "_order", recording)
    s = solve(p, bc)
    monkeypatch.setattr(spectral, "_order", real)
    return s, orders


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_lazy_columns_match_the_eager_assembly(route, monkeypatch):
    p, bc, prefix, fraction = ROUTES[route]
    s, orders = _solve_recording(p, bc, monkeypatch)
    assert s.source.startswith(prefix) and s.base is not None
    assert len(orders) == 1  # every route sorts once
    if fraction is None:
        assert s.slots is None and s.eigenvectors is s.base
        ref = s.base
    else:
        assert s.base.shape == (len(s), len(s) * fraction // 4) and s.base.flags.f_contiguous
        assert s.slots.size == len(s) and np.array_equal(np.sort(s.slots, axis=None), np.arange(len(s)))
        before = s.base.tobytes()
        ref = _eager_pairs(s.base, orders[0])
        assert s.eigenvectors.tobytes() == ref.tobytes() and s.eigenvectors.flags.f_contiguous
        assert s.base.tobytes() == before  # writing every column leaves the base columns as they were
    # each base profile is the profile of every sorted column it stands for
    full, base = spatial_profile(ref, p.N).prob, spatial_profile(s.base, p.N).prob
    for slot in (np.arange(len(s))[None] if s.slots is None else s.slots.reshape(-1, s.base.shape[1])):
        assert full[:, slot].tobytes() == base.tobytes()
    for frac, threshold in ((0.1, 0.9), (0.1, 0.5), (0.2, 0.3)):
        assert nhse_fraction(s, frac, threshold, p.N) == _eager_nhse_fraction(ref, p.N, frac, threshold)
    P = profile_matrix(s, p.N)
    assert P.tobytes() == _eager_profile_matrix(ref, p.N).tobytes()
    assert P.mean(axis=0).tobytes() == _eager_profile_matrix(ref, p.N).mean(axis=0).tobytes()
    assert P.flags.c_contiguous == _eager_profile_matrix(ref, p.N).flags.c_contiguous


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_no_route_returns_a_negative_zero(route):
    # a CSV writes a -0.0 part as "-0"
    p, bc, prefix, _ = ROUTES[route]
    for vectors in (True, False):
        s = solve(p, bc, vectors)
        parts = np.concatenate([s.eigenvalues.real, s.eigenvalues.imag])
        assert s.source.startswith(prefix) and not np.signbit(parts[parts == 0]).any()


@pytest.mark.parametrize("base,strengths,prefix", [
    (_FIG8, _W, "reduced["),
    (_FIG9, {"omega": 2.0}, "xp["),
], ids=["reduced", "xp"])
def test_ensemble_profiles_match_the_eager_assembly(base, strengths, prefix):
    spec = DisorderSpec(strengths, seed=11, realizations=3)
    res = ensemble_observables(base, spec, ("nhse_fraction", "mean_profile"), frac=0.1, threshold=0.5)
    assert res.failures == ()
    for r in range(spec.realizations):
        s = solve(sample_site_fields(base, spec, r), OBC)
        assert s.source.startswith(prefix)
        V = s.eigenvectors
        assert res.observables["nhse_fraction"][r] == _eager_nhse_fraction(V, base.N, 0.1, 0.5)
        assert res.observables["mean_profile"][r].tobytes() == \
            _eager_profile_matrix(V, base.N).mean(axis=0).tobytes()
        assert profile_rows(s, spatial_profile(s.base, base.N)).tobytes() == \
            _eager_profile_matrix(V, base.N).tobytes()


_RUNS = {
    "phase-scan": """
[model]
kind = modbkc
J1 = 0
J2 = 0
Delta1 = 1
Delta2 = 1.5
omega = 0
N = 20
[sweep]
parameter = J1
min = 0
max = 2.5
step = 0.25
""",
    "disorder": """
[model]
kind = modbkc
J1 = {J1}
J2 = 1
Delta1 = 2.1
Delta2 = 1.5
omega = {omega}
N = 20
bc = obc
[disorder]
W_omega = {W}
W_J1 = 0.1
realizations = 3
seed = 7
observables = nhse_fraction,mean_profile
""",
    "profiles": """
[model]
kind = modbkc
J1 = {J1}
J2 = 0.5
Delta1 = 1
Delta2 = 1.5
omega = {omega}
N = 20
bc = both
""",
}


@pytest.mark.parametrize("command,values", [
    ("phase-scan", {}),
    ("disorder", {"J1": 2.2, "omega": 0, "W": 0}),
    ("disorder", {"J1": 2.2, "omega": 0.05, "W": 2}),
    ("profiles", {"J1": 0.0, "omega": 0}),
    ("profiles", {"J1": 1.4, "omega": 0.3}),
], ids=["phase-scan", "disorder-reduced", "disorder-xp", "profiles-reduced", "profiles-xp"])
def test_runs_never_write_every_column(command, values, tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("_sorted_pairs called")

    monkeypatch.setattr(spectral, "_sorted_pairs", refuse)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_RUNS[command].format(**values))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    if command == "phase-scan":  # every point but Delta1 = J1 has its census
        rows = (tmp_path / "out" / "phase_scan.csv").read_text().splitlines()[1:]
        assert sum(row.split(",")[5] != "" for row in rows) == len(rows) - 1 == 10
