"""Polarization chain simulator for a ground-to-satellite optical uplink.

Submodules:

* `jones` - polarization state algebra, waveplates, PER/fidelity metrics,
  fiber-compensation solver
* `thinfilm` - multilayer coating response (a bare interface is the empty stack)
* `antenna` - transmitting-antenna geometry and PER scans
* `tle` / `orbit` - two-line element parsing, two-body propagation, passes
* `compensation` - HWP scheduling against satellite motion
* `linksim` - Werner-state source, channel, CHSH Monte Carlo
* `cli` - the `polsim` command-line front end
"""

from .jones import (
    IDEAL_MIRROR,
    MirrorResponse,
    OpticalElement,
    PolarizationState,
    fidelity,
    hwp,
    measure_per,
    mirror_element,
    per_to_fidelity,
    polarizer,
    qwp,
    rotator,
    solve_fiber_compensation,
)
from .thinfilm import LayerStack, Ray, stack_response
from .antenna import (
    DESIGN_GEOMETRY,
    HR_COATING,
    PointingDirection,
    TelescopeGeometry,
    antenna_per_scan,
    scanning_head_jones,
)
from .tle import TleRecord, format_tle, parse_tle
from .orbit import GroundStation, NGARI_STATION, PassProfile, extract_passes, propagate, topocentric
from .compensation import (
    CompensationSchedule,
    compensation_angle,
    quantization_error,
    schedule_from_pass,
    verify_compensation,
)
from .linksim import (
    BELL_TEST_SETTINGS,
    ChannelModel,
    ChshResult,
    DetectionModel,
    SourceModel,
    estimate_chsh,
    offset_scan,
    simulate_coincidences,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
