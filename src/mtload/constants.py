"""Fundamental physical constants, SI (CODATA 2018)."""

K_B = 1.380649e-23         # J/K (exact)
MU_B = 9.2740100783e-24    # J/T
G_ACCEL = 9.80665          # m/s^2 (standard gravity)
H_PLANCK = 6.62607015e-34  # J s (exact)
