"""Half-space depth from first principles.

Walks through the three depth computations the package provides: exact
counting in 1-D and 2-D, the seeded projection approximation for any
dimension, and the closed-form population depth of a Gaussian --
showing how the empirical depth converges to the population value.

Run:  python3 demos/01_depth_basics.py
"""

import numpy as np

from depthwl import (
    DepthMethod,
    GaussianParams,
    empirical_depth,
    empirical_depths_all,
    population_depth_gaussian,
)

rng = np.random.default_rng(42)

print("=" * 70)
print("1-D: depth is just the smaller closed tail fraction")
print("=" * 70)
data = np.array([[1.0], [2.0], [3.0]])
for q in (1.0, 2.0, 2.5, 10.0):
    d = empirical_depth([q], data, DepthMethod.exact())
    print(f"  depth of {q:4} in {{1, 2, 3}} = {d:.4f}")
print("  (10 lies outside the convex hull, hence depth 0)")

print()
print("=" * 70)
print("2-D: exact angular-sweep depth")
print("=" * 70)
triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
center = [1 / 3, 1 / 3]
print(f"  triangle vertices, query at the centroid:")
print(f"  depth = {empirical_depth(center, triangle, DepthMethod.exact()):.4f}"
      f"  (the centroid of a triangle always has depth 1/3)")

sample = rng.standard_normal((400, 2))
depths = empirical_depths_all(sample, DepthMethod.exact())
deepest = sample[np.argmax(depths)]
print(f"  n=400 Gaussian sample: deepest point {np.round(deepest, 3)} "
      f"with depth {depths.max():.3f}")
print(f"  shallowest depth {depths.min():.4f} (hull points are near 1/n = 0.0025)")

print()
print("=" * 70)
print("Projection approximation: an upper bound that tightens")
print("=" * 70)
sample5 = rng.standard_normal((200, 5))
for k in (10, 100, 1000, 10000):
    d = empirical_depths_all(sample5, DepthMethod.projection(k, seed=7))
    print(f"  p=5, n_directions={k:>6}: mean depth estimate = {d.mean():.4f}")
print("  more directions can only lower the estimate toward the exact value")

print()
print("=" * 70)
print("Population depth of a Gaussian and the empirical limit")
print("=" * 70)
gp = GaussianParams.standard(2)
print("  the least-probable half-space through x is a 1-D normal tail:")
for r in (0.0, 1.0, 2.0, 3.0):
    print(f"    population depth at radius {r}: "
          f"{population_depth_gaussian([r, 0.0], gp):.5f}")

big = rng.standard_normal((40_000, 2))
emp = empirical_depth([2.0, 0.0], big, DepthMethod.exact())
pop = population_depth_gaussian([2.0, 0.0], gp)
print(f"  empirical depth of (2, 0) in n=40000 sample: {emp:.5f}")
print(f"  population value:                            {pop:.5f}")
