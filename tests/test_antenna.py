import math

import numpy as np
import pytest

from polsim import antenna as A
from polsim import jones as J
from polsim.table import read_table


def incidence_deg(focal_mm, semidiameter_mm):
    """Incidence of an axis-parallel edge ray on a paraboloid: the surface
    z = r^2 / (4 f) has slope h / (2 f) at ray height h."""
    return math.degrees(math.atan2(semidiameter_mm, 2.0 * focal_mm))


class TestGeometry:
    def test_design_values(self):
        # f = |R| / 2 for the design radii -1625 mm and -65 mm
        g = A.DESIGN_GEOMETRY
        assert (g.primary_focal_mm, g.primary_semidiameter_mm) == (1625.0 / 2.0, 190.0)
        assert (g.secondary_focal_mm, g.secondary_semidiameter_mm) == (65.0 / 2.0, 7.6)

    def test_primary_edge_ray(self):
        g = A.DESIGN_GEOMETRY
        angle = incidence_deg(g.primary_focal_mm, g.primary_semidiameter_mm)
        assert angle == pytest.approx(math.degrees(math.atan(190.0 / 1625.0)))
        assert angle == pytest.approx(6.66, abs=0.02)

    def test_secondary_edge_ray(self):
        g = A.DESIGN_GEOMETRY
        angle = incidence_deg(g.secondary_focal_mm, g.secondary_semidiameter_mm)
        assert angle == pytest.approx(math.degrees(math.atan(7.6 / 65.0)))
        assert angle == pytest.approx(6.67, abs=0.02)

    def test_small_angle_claim(self):
        # every aperture ray of the design stays below 7 degrees incidence, so
        # the paraboloids are treated as polarization-neutral
        g = A.DESIGN_GEOMETRY
        assert max(incidence_deg(g.primary_focal_mm, g.primary_semidiameter_mm),
                   incidence_deg(g.secondary_focal_mm, g.secondary_semidiameter_mm)) < 7.0


class TestScanningHead:
    def test_reference_direction_ideal(self):
        el = A.scanning_head_jones(A.PointingDirection(0.0, 0.0), J.IDEAL_MIRROR)
        assert np.allclose(el.matrix, np.eye(2), atol=1e-15)
        out = el.apply(J.PolarizationState.h()).normalized()
        assert J.measure_per(out, 0.0) == J.PER_CAP

    def test_azimuth_rotates_by_ninety(self):
        # rotation-composition oracle: dir (90, 0) vs (0, 0) differ by R(90 deg)
        el0 = A.scanning_head_jones(A.PointingDirection(0.0, 0.0), J.IDEAL_MIRROR)
        el90 = A.scanning_head_jones(A.PointingDirection(90.0, 0.0), J.IDEAL_MIRROR)
        rot = J.rotator(math.radians(90.0))
        assert np.allclose(el90.matrix, (rot @ el0).matrix, atol=1e-12)

    def test_frame_rotation_linearity(self, rng):
        # ideal mirrors: pointing at (az, el) rotates polarization by az + el
        for _ in range(300):
            az = rng.uniform(-180.0, 180.0)
            el = rng.uniform(0.0, 90.0)
            element = A.scanning_head_jones(A.PointingDirection(az, el), J.IDEAL_MIRROR)
            rot = J.rotator(math.radians(az + el))
            assert np.max(np.abs(element.matrix - rot.matrix)) < 1e-9

    def test_coated_per_floor_at_fifty(self):
        element = A.scanning_head_jones(A.PointingDirection(0.0, 50.0), A.HR_COATING)
        out = element.apply(J.PolarizationState.plus()).normalized()
        per = J.measure_per(out, math.radians(45.0 + 50.0))
        assert per >= 400.0

    def test_singular_values_passive(self, rng):
        for _ in range(100):
            az = rng.uniform(-180.0, 180.0)
            el = rng.uniform(0.0, 90.0)
            element = A.scanning_head_jones(A.PointingDirection(az, el), A.HR_COATING)
            assert np.linalg.norm(element.matrix, 2) <= 1.0 + 1e-12

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            A.PointingDirection(180.0, 10.0)
        with pytest.raises(ValueError):
            A.PointingDirection(0.0, 91.0)

    @pytest.mark.parametrize("az, el", [(-180.0, 10.0), (np.nextafter(180.0, 0.0), 10.0),
                                        (0.0, 0.0), (0.0, 90.0)])
    def test_closed_bounds_accepted(self, az, el):
        A.PointingDirection(az, el)
        A.PointingDirection(np.array([az, 0.0]), np.array([el, 45.0]))

    @pytest.mark.parametrize("az, el, word", [
        (np.nextafter(-180.0, -np.inf), 10.0, "azimuth"),
        (0.0, np.nextafter(90.0, np.inf), "elevation"),
        (0.0, np.nextafter(0.0, -np.inf), "elevation"),
    ])
    def test_just_past_bounds_rejected(self, az, el, word):
        with pytest.raises(ValueError, match=f"^{word} must be in "):
            A.PointingDirection(az, el)


class TestPerScan:
    def test_ideal_coating_all_at_cap(self):
        scan = A.antenna_per_scan(A.DESIGN_GEOMETRY, J.IDEAL_MIRROR)
        assert all(row[3] == J.PER_CAP for row in scan.rows)

    def test_coated_grid_shape_and_floor(self):
        scan = A.antenna_per_scan(A.DESIGN_GEOMETRY, A.HR_COATING)
        assert len(scan.rows) == 96  # 3 elevations x 8 azimuths x 4 states
        assert scan.min_per >= 400.0
        assert scan.mean_per >= scan.min_per

    def test_fidelity_column_consistent(self):
        scan = A.antenna_per_scan(A.DESIGN_GEOMETRY, A.HR_COATING)
        for _, _, _, per, fid in scan.rows:
            assert fid == pytest.approx(per / (per + 1.0), rel=1e-12)

    def test_single_cell_reduces_to_direct_composition(self):
        scan = A.antenna_per_scan(A.DESIGN_GEOMETRY, A.HR_COATING, elevations_deg=[50.0],
                                  azimuths_deg=[45.0])
        assert [row[2] for row in scan.rows] == ["H", "V", "+", "-"]
        element = A.scanning_head_jones(A.PointingDirection(45.0, 50.0), A.HR_COATING)
        states = (J.PolarizationState.h(), J.PolarizationState.v(), J.PolarizationState.plus(),
                  J.PolarizationState.minus())
        for row, state, axis_deg in zip(scan.rows, states, (0.0, 90.0, 45.0, -45.0)):
            out = element.apply(state).normalized()
            per = J.measure_per(out, math.radians(axis_deg) + math.radians(45.0 + 50.0))
            assert row[:2] == (50.0, 45.0)
            assert row[3] == pytest.approx(per, rel=1e-12)

    def test_mean_per_is_mean_of_rows(self):
        scan = A.antenna_per_scan(A.DESIGN_GEOMETRY, A.HR_COATING)
        per = np.array([row[3] for row in scan.rows])
        assert scan.mean_per == pytest.approx(per.sum() / 96.0, rel=1e-12)
        assert scan.min_per < scan.mean_per < per.max()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            A.antenna_per_scan(A.DESIGN_GEOMETRY, A.HR_COATING, elevations_deg=[])

    def test_csv_roundtrip(self):
        scan = A.antenna_per_scan(
            A.DESIGN_GEOMETRY, A.HR_COATING, elevations_deg=[30.0], azimuths_deg=[0.0, 45.0]
        )
        assert tuple(read_table(scan.to_csv(), A.PER_SCAN_FORMAT)) == scan.rows
