"""Tour of the closed-form state functions.

Evaluates the Wigner function of a coherent-state superposition, its Fourier
transform, the ideal and noise-degraded quadrature densities, and the
interference witness, cross-checking a few identities numerically along the
way.  Writes the phase-space grid to wigner_true.csv for plotting.
"""
import math

import numpy as np

import catomo as ct

state = ct.CatState(3.0 / math.sqrt(2.0))          # |alpha|^2 = 4.5, alpha real
noise = ct.NoiseModel(0.45)                        # sub-50% detection efficiency

print("== state ==")
print(f"alpha = {state.alpha1:.6f} + {state.alpha2:.6f} i,  |alpha|^2 = {state.abs_alpha_sq}")
print(f"normalization constant 2(1 + e^(-2|a|^2)) = {state.norm_const:.9f}")
print(f"deconvolution strength gamma = (1-eta)/(4 eta) = {noise.gamma:.9f}")

print("\n== Wigner function ==")
print(f"W(0, 0)      = {ct.wigner_true(state, 0.0, 0.0):.9f}   (1/pi = {1/math.pi:.9f}, any alpha)")
print(f"W(3, 0)      = {ct.wigner_true(state, 3.0, 0.0):.9f}   (positive lobe)")
print(f"W(0, pi/6)   = {ct.wigner_true(state, 0.0, math.pi/6):.9f}   (negative fringe)")
print(f"F[W](0, 0)   = {ct.wigner_fourier(state, 0.0, 0.0):.9f}   (normalization)")

# the quadrature density is the line integral (Radon transform) of W;
# compare the closed form against Gauss-Legendre quadrature along that line,
# past |t| = 12 of which W is below e^{-80}
x, phi = 0.8, 1.1
closed = ct.quadrature_density(state, x, phi)
t, wt = np.polynomial.legendre.leggauss(200)
line = ct.wigner_true(state, x * math.cos(phi) - 12.0 * t * math.sin(phi),
                      x * math.sin(phi) + 12.0 * t * math.cos(phi))
radon = 12.0 * float(wt @ line)
print("\n== quadrature density ==")
print(f"p({x}, {phi})        closed form = {closed:.12f}")
print(f"p({x}, {phi})  Radon quadrature = {radon:.12f}   (diff {abs(closed-radon):.2e})")

xs = np.linspace(-5, 5, 9)
print("noisy density at phi=0, eta=0.45:", np.round(ct.noisy_quadrature_density(state, noise, xs, 0.0), 5))

print("\n== interference witness ==")
print(f"pure-state mean        = {ct.pure_witness_mean(state):.9f}  (1/2 for every alpha)")
print(f"incoherent-mixture mean = {ct.incoherent_witness_mean(state):.3e}")
print("any measured mean far from the incoherent value certifies the superposition")

# export the true Wigner function for plotting (q, p, w columns)
ax = np.linspace(-5.0, 5.0, 201)
qq, pp = np.meshgrid(ax, ax, indexing="ij")
grid = ct.WignerGrid(ct.wigner_true(state, qq, pp), extent=5.0, r=5.0,
                     meta={"alpha1": state.alpha1, "alpha2": state.alpha2})
ct.grid_to_csv(grid, "wigner_true.csv")
print("\nwrote wigner_true.csv (q,p,w) -- two lobes at (+-3, 0), oscillating ridge between")
