import numpy as np
import pytest

from spoofbench.errors import ConfigError
from spoofbench.geometry import Region


def test_area():
    r = Region(-600.0, 600.0, -600.0, 600.0)
    assert r.area == pytest.approx(1200.0 * 1200.0)


def test_degenerate_rejected():
    with pytest.raises(ConfigError):
        Region(0.0, 0.0, -1.0, 1.0)
    with pytest.raises(ConfigError):
        Region(0.0, 1.0, 5.0, 2.0)
    # ordered extents whose area underflows to zero
    with pytest.raises(ConfigError):
        Region(0.0, 5e-324, 0.0, 5e-324)


def test_contains_boundary_counts():
    r = Region(0.0, 10.0, 0.0, 10.0)
    assert r.contains(np.array([0.0, 0.0]))
    assert r.contains(np.array([10.0, 10.0]))
    assert not r.contains(np.array([10.0001, 5.0]))


def test_sample_inside():
    r = Region(-5.0, 5.0, 100.0, 200.0)
    rng = np.random.default_rng(0)
    pts = r.sample(rng, 1000)
    assert pts.shape == (1000, 2)
    assert (pts[:, 0] >= -5.0).all() and (pts[:, 0] <= 5.0).all()
    assert (pts[:, 1] >= 100.0).all() and (pts[:, 1] <= 200.0).all()


def test_dict_round_trip():
    r = Region(-1.0, 2.0, -3.0, 4.0)
    assert Region.from_dict(r.as_dict()) == r


def test_from_dict_strict():
    good = Region(-1.0, 2.0, -3.0, 4.0).as_dict()
    bad = dict(good)
    bad["typo"] = 1
    with pytest.raises(ConfigError):
        Region.from_dict(bad)
    incomplete = dict(good)
    del incomplete["x_min"]
    with pytest.raises(ConfigError):
        Region.from_dict(incomplete)
