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

__version__ = "0.1.0"
