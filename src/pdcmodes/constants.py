"""Physical constants in SI units (CODATA 2022), and the default grid size.

c and ħ are exact in SI since 2019: ħ = h/2π with h = 6.62607015e-34 J·s
exactly, rounded once to the nearest double. ε₀ is the measured CODATA 2022
value. The literals are kept here so that importing the package does not
pull in a constants library for three numbers.
"""

c = 299792458.0                   # speed of light in vacuum, m/s
hbar = 1.0545718176461565e-34     # reduced Planck constant, J·s
epsilon_0 = 8.8541878188e-12      # vacuum permittivity, F/m

# Grid points per axis when a run does not set them. Kept here, beside the
# other literals, so that the run-configuration layer can read it without
# loading the JSA layer.
DEFAULT_GRID_POINTS = 512
