"""Reproducible generation of noisy homodyne data.

Draws (x, phi) pairs from the noise-degraded quadrature law, demonstrates the
determinism and replicate-separation guarantees, and compares empirical
moments per phase stratum against the analytic density.
"""
import math

import numpy as np

import catomo as ct

state = ct.CatState(3.0 / math.sqrt(2.0))
noise = ct.NoiseModel(0.45)

batch = ct.generate_batch(state, noise, n=200_000, seed=42, replicate=0)
print(f"generated n={batch.n} pairs, phase range [{batch.phi.min():.4f}, {batch.phi.max():.4f}]")

again = ct.generate_batch(state, noise, n=200_000, seed=42, replicate=0)
other = ct.generate_batch(state, noise, n=200_000, seed=42, replicate=1)
print("same seed+replicate reproduces bit-exactly:", bool(np.array_equal(batch.x, again.x)))
print("different replicate gives an independent stream:", not np.array_equal(batch.x, other.x))

# per-stratum empirical vs analytic second moment of x: Gauss-Legendre rules
# over the stratum's phases and over x in [-8, 8]
print("\nphase stratum      <x^2> empirical   <x^2> analytic")
edges = np.linspace(0.0, math.pi, 6)
gl_x, gl_w = np.polynomial.legendre.leggauss(16)
xs, x_w = np.polynomial.legendre.leggauss(200)
xs, x_w = 8.0 * xs, 8.0 * x_w
for lo, hi in zip(edges[:-1], edges[1:]):
    sel = (batch.phi >= lo) & (batch.phi < hi)
    emp = float(np.mean(batch.x[sel] ** 2))
    phis = 0.5 * (lo + hi) + 0.5 * (hi - lo) * gl_x
    density = ct.noisy_quadrature_density(state, noise, xs[:, None], phis)
    ana = 0.5 * float((x_w * xs * xs) @ density @ gl_w)
    print(f"[{lo:.2f}, {hi:.2f})      {emp:10.4f}       {ana:10.4f}")

# batch files round-trip
ct.write_batch(batch, "demo_batch.qb")
back = ct.read_batch("demo_batch.qb")
print("\nbatch file round-trips bit-exactly:", bool(np.array_equal(back.x, batch.x)))
print("wrote demo_batch.qb (JSON header + little-endian float64 pairs)")
