import math

import numpy as np
import pytest

from polsim import antenna as A
from polsim import jones as J
from polsim.table import read_table


class TestGeometry:
    def test_design_values(self):
        g = A.DESIGN_GEOMETRY
        assert g.primary_focal_mm == pytest.approx(812.5)
        assert g.secondary_focal_mm == pytest.approx(32.5)
        assert g.conic == -1.0

    def test_vertex_ray(self):
        assert A.parabola_incidence_angle(812.5, 0.0) == 0.0

    def test_primary_edge_ray(self):
        # atan(190 / 1625) from the design radius -1625 mm
        angle = A.parabola_incidence_angle(812.5, 190.0)
        assert math.degrees(angle) == pytest.approx(math.degrees(math.atan(190.0 / 1625.0)))
        assert math.degrees(angle) == pytest.approx(6.66, abs=0.02)

    def test_secondary_edge_ray(self):
        angle = A.parabola_incidence_angle(32.5, 7.6)
        assert math.degrees(angle) == pytest.approx(math.degrees(math.atan(7.6 / 65.0)))
        assert math.degrees(angle) == pytest.approx(6.67, abs=0.02)

    def test_small_angle_claim(self):
        # every aperture ray of the design stays below 7 degrees incidence
        assert math.degrees(A.max_incidence_angle(A.DESIGN_GEOMETRY)) < 7.0

    def test_aperture_guard(self):
        with pytest.raises(ValueError):
            A.parabola_incidence_angle(812.5, 200.0, semidiameter_mm=190.0)


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
        scan = A.antenna_per_scan(
            A.DESIGN_GEOMETRY,
            A.HR_COATING,
            elevations_deg=[50.0],
            azimuths_deg=[45.0],
            states=(("+", J.PolarizationState.plus()),),
        )
        assert len(scan.rows) == 1
        element = A.scanning_head_jones(A.PointingDirection(45.0, 50.0), A.HR_COATING)
        out = element.apply(J.PolarizationState.plus()).normalized()
        per = J.measure_per(out, math.radians(45.0) + math.radians(45.0 + 50.0))
        assert scan.rows[0][3] == pytest.approx(per, rel=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            A.antenna_per_scan(A.DESIGN_GEOMETRY, A.HR_COATING, elevations_deg=[])

    def test_csv_roundtrip(self):
        scan = A.antenna_per_scan(
            A.DESIGN_GEOMETRY, A.HR_COATING, elevations_deg=[30.0], azimuths_deg=[0.0, 45.0]
        )
        assert tuple(read_table(scan.to_csv(), A.PER_SCAN_FORMAT)) == scan.rows
